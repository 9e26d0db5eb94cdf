//! The dense `f32` tensor.

use crate::shape::Shape;

/// A dense row-major `f32` tensor.
///
/// # Examples
///
/// ```
/// use axtensor::Tensor;
///
/// let mut t = Tensor::zeros(&[2, 2]);
/// t.set(&[0, 1], 3.0);
/// assert_eq!(t.get(&[0, 1]), 3.0);
/// assert_eq!(t.sum(), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.len()];
        Tensor { shape, data }
    }

    /// Creates a constant-filled tensor.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.len()];
        Tensor { shape, data }
    }

    /// Wraps a data vector with a shape.
    ///
    /// # Panics
    ///
    /// Panics if the data length does not match the shape.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not fill shape {shape}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// The shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements (never true; see [`Shape`]).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reads one element.
    pub fn get(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Writes one element.
    pub fn set(&mut self, idx: &[usize], v: f32) {
        let off = self.shape.offset(idx);
        self.data[off] = v;
    }

    /// Returns a reshaped copy sharing the same data layout.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshaped(&self, dims: &[usize]) -> Tensor {
        Tensor::from_vec(self.data.clone(), dims)
    }

    /// Applies `f` element-wise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` element-wise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise combination with another tensor of identical shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip_with shape mismatch");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// `self - other`.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// In-place `self += scale * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape, other.shape, "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Scalar multiple.
    pub fn scaled(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Element-wise clamp into `[lo, hi]`.
    pub fn clamped(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.len() as f32
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Index of the maximum element (first occurrence wins).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty (cannot happen via public API).
    pub fn argmax(&self) -> usize {
        argmax(&self.data)
    }

    /// Dot product with another tensor of identical shape.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "dot shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Euclidean (`l2`) norm.
    pub fn l2_norm(&self) -> f32 {
        self.data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Chebyshev (`linf`) norm.
    pub fn linf_norm(&self) -> f32 {
        self.max_abs()
    }

    /// `lp` distance to another tensor: `l2` of the difference.
    pub fn l2_dist(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "l2_dist shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| {
                let d = (a - b) as f64;
                d * d
            })
            .sum::<f64>()
            .sqrt() as f32
    }

    /// `linf` distance to another tensor.
    pub fn linf_dist(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "linf_dist shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs()))
    }

    /// Matrix-vector product: `self` is `[rows, cols]`, `x` has `cols`
    /// elements; returns a `[rows]` tensor.
    ///
    /// # Panics
    ///
    /// Panics unless shapes conform.
    pub fn matvec(&self, x: &Tensor) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "matvec needs a matrix");
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        assert_eq!(x.len(), cols, "matvec dimension mismatch");
        let mut out = vec![0.0f32; rows];
        for (r, o) in out.iter_mut().enumerate() {
            let row = &self.data[r * cols..(r + 1) * cols];
            let mut acc = 0.0f32;
            for (w, &xv) in row.iter().zip(x.data()) {
                acc += w * xv;
            }
            *o = acc;
        }
        Tensor::from_vec(out, &[rows])
    }

    /// Transposed matrix-vector product: returns `self^T * y` where `self`
    /// is `[rows, cols]` and `y` has `rows` elements.
    pub fn matvec_t(&self, y: &Tensor) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "matvec_t needs a matrix");
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        assert_eq!(y.len(), rows, "matvec_t dimension mismatch");
        let mut out = vec![0.0f32; cols];
        for r in 0..rows {
            let yv = y.data()[r];
            if yv == 0.0 {
                continue;
            }
            let row = &self.data[r * cols..(r + 1) * cols];
            for (o, &w) in out.iter_mut().zip(row) {
                *o += w * yv;
            }
        }
        Tensor::from_vec(out, &[cols])
    }
}

/// Index of the largest value of `xs`, first occurrence on ties (`0`
/// for an empty or all-NaN slice): [`Tensor::argmax`] over a raw slice.
pub fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in xs.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let t = Tensor::full(&[2, 3], 1.5);
        assert_eq!(t.len(), 6);
        assert_eq!(t.sum(), 9.0);
        assert_eq!(t.mean(), 1.5);
        let z = Tensor::zeros(&[4]);
        assert_eq!(z.max_abs(), 0.0);
    }

    #[test]
    #[should_panic(expected = "does not fill")]
    fn from_vec_validates_length() {
        let _ = Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[3, 4, 5]);
        t.set(&[2, 3, 4], 9.0);
        t.set(&[0, 0, 0], -1.0);
        assert_eq!(t.get(&[2, 3, 4]), 9.0);
        assert_eq!(t.get(&[0, 0, 0]), -1.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![0.5, -1.0, 2.0], &[3]);
        assert_eq!(a.add(&b).data(), &[1.5, 1.0, 5.0]);
        assert_eq!(a.sub(&b).data(), &[0.5, 3.0, 1.0]);
        assert_eq!(a.scaled(2.0).data(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.dot(&b), 0.5 - 2.0 + 6.0);
        let mut c = a.clone();
        c.add_scaled(&b, 2.0);
        assert_eq!(c.data(), &[2.0, 0.0, 7.0]);
    }

    #[test]
    fn clamp_and_norms() {
        let t = Tensor::from_vec(vec![-2.0, 0.5, 3.0], &[3]);
        assert_eq!(t.clamped(0.0, 1.0).data(), &[0.0, 0.5, 1.0]);
        assert_eq!(t.linf_norm(), 3.0);
        let expect = ((4.0 + 0.25 + 9.0) as f32).sqrt();
        assert!((t.l2_norm() - expect).abs() < 1e-6);
    }

    #[test]
    fn distances() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![4.0, 6.0], &[2]);
        assert_eq!(a.l2_dist(&b), 5.0);
        assert_eq!(a.linf_dist(&b), 4.0);
        assert_eq!(a.l2_dist(&a), 0.0);
    }

    #[test]
    fn argmax_first_occurrence() {
        let t = Tensor::from_vec(vec![1.0, 7.0, 7.0, -2.0], &[4]);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn matvec_matches_manual() {
        // [[1, 2, 3], [4, 5, 6]] * [1, 0, -1] = [-2, -2]
        let m = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let x = Tensor::from_vec(vec![1., 0., -1.], &[3]);
        assert_eq!(m.matvec(&x).data(), &[-2.0, -2.0]);
    }

    #[test]
    fn matvec_t_is_transpose() {
        let m = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let y = Tensor::from_vec(vec![1., -1.], &[2]);
        // m^T y = [1-4, 2-5, 3-6]
        assert_eq!(m.matvec_t(&y).data(), &[-3.0, -3.0, -3.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let r = t.reshaped(&[3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.dims(), &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn zip_shape_mismatch_panics() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        let _ = a.add(&b);
    }
}
