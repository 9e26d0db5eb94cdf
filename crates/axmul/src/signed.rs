//! Signed multiplication through unsigned kernels.
//!
//! The paper's AxDNNs use *unsigned* approximate multipliers; signed
//! weights are handled sign-magnitude: the 8-bit magnitudes go through the
//! unsigned multiplier and the sign is re-applied to the product. This
//! module wraps any [`MulKernel`] into a signed multiplier, which is also
//! how the `mul8s_*` parts are realized.

use crate::kernel::MulKernel;

/// A signed 8x8 multiplier implemented sign-magnitude over an unsigned
/// kernel.
///
/// # Examples
///
/// ```
/// use axmul::{ExactMul, SignedMul};
///
/// let smul = SignedMul::new(ExactMul);
/// assert_eq!(smul.mul_i8(-3, 25), -75);
/// assert_eq!(smul.mul_i8(-4, -4), 16);
/// assert_eq!(smul.mul_i8(i8::MIN, 2), -256); // |−128| = 128 fits the u8 operand
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignedMul<K> {
    kernel: K,
}

impl<K: MulKernel> SignedMul<K> {
    /// Wraps an unsigned kernel.
    pub fn new(kernel: K) -> Self {
        SignedMul { kernel }
    }

    /// The wrapped kernel.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// Consumes the wrapper and returns the kernel.
    pub fn into_inner(self) -> K {
        self.kernel
    }

    /// Multiplies two signed 8-bit operands.
    ///
    /// `i8::MIN` has magnitude 128, which still fits the unsigned 8-bit
    /// operand range, so the full i8 domain is supported.
    #[inline]
    pub fn mul_i8(&self, a: i8, b: i8) -> i32 {
        let neg = (a < 0) != (b < 0);
        let ma = (a as i16).unsigned_abs() as u8;
        let mb = (b as i16).unsigned_abs() as u8;
        self.kernel.mul_signed_mag(neg, ma, mb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ExactMul;
    use crate::lut::MulLut;

    #[test]
    fn exact_signed_matches_native_i32_everywhere() {
        let smul = SignedMul::new(ExactMul);
        for a in i8::MIN..=i8::MAX {
            for b in i8::MIN..=i8::MAX {
                assert_eq!(smul.mul_i8(a, b), a as i32 * b as i32, "{a}*{b}");
            }
        }
    }

    #[test]
    fn approximate_signed_is_sign_symmetric() {
        // |approx(a, b)| must be identical regardless of sign placement:
        // the magnitude path is shared.
        let lut = MulLut::from_fn("approx", |a, b| {
            (a as u16 * b as u16) & !0xF // truncated low bits
        });
        let smul = SignedMul::new(&lut);
        for a in [-120i8, -5, 0, 3, 90] {
            for b in [-99i8, -1, 0, 7, 127] {
                let pp = smul.mul_i8(a.abs().max(0), b.abs().max(0));
                let nn = smul.mul_i8(-a.abs(), -b.abs());
                assert_eq!(pp.abs(), nn.abs());
                let pn = smul.mul_i8(a.abs(), -b.abs());
                assert!(pn <= 0);
            }
        }
    }

    #[test]
    fn i8_min_magnitude_handled() {
        let smul = SignedMul::new(ExactMul);
        assert_eq!(smul.mul_i8(i8::MIN, i8::MIN), 16384);
    }
}
