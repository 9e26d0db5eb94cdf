//! Model weight artifacts.
//!
//! Format (`AXM1`, little-endian, see `axutil::binio`):
//!
//! ```text
//! magic "AXM1" | name | layer count |
//!   per layer: kind tag (u8) | kind-specific config | tensors
//! ```
//!
//! Tensors are stored as `dims: Vec<u64>` + `data: Vec<f32>`.

use std::path::Path;

use axtensor::Tensor;
use axutil::binio::{ByteReader, ByteWriter};
use axutil::AxError;

use crate::layer::{AvgPool2d, Conv2d, Dense, Layer};
use crate::model::Sequential;

const MAGIC: &[u8; 4] = b"AXM1";

const TAG_CONV: u8 = 1;
const TAG_DENSE: u8 = 2;
const TAG_AVGPOOL: u8 = 3;
const TAG_RELU: u8 = 4;
const TAG_FLATTEN: u8 = 5;

fn put_tensor(w: &mut ByteWriter, t: &Tensor) {
    w.put_u64_slice(&t.dims().iter().map(|&d| d as u64).collect::<Vec<_>>());
    w.put_f32_slice(t.data());
}

fn get_tensor(r: &mut ByteReader<'_>) -> Result<Tensor, AxError> {
    let dims: Vec<usize> = r.get_u64_vec()?.into_iter().map(|d| d as usize).collect();
    let data = r.get_f32_vec()?;
    if dims.is_empty() || dims.contains(&0) {
        return Err(AxError::format("tensor with empty shape"));
    }
    let len = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| AxError::format("tensor shape overflows"))?;
    if len != data.len() {
        return Err(AxError::format("tensor data does not fill shape"));
    }
    Ok(Tensor::from_vec(data, &dims))
}

/// Serializes a model to bytes.
pub fn model_to_bytes(model: &Sequential) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_raw(MAGIC);
    w.put_str(model.name());
    w.put_u32(model.layers().len() as u32);
    for layer in model.layers() {
        match layer {
            Layer::Conv2d(c) => {
                w.put_u8(TAG_CONV);
                w.put_u32(c.stride() as u32);
                w.put_u32(c.pad() as u32);
                put_tensor(&mut w, c.weight());
                put_tensor(&mut w, c.bias());
            }
            Layer::Dense(d) => {
                w.put_u8(TAG_DENSE);
                put_tensor(&mut w, d.weight());
                put_tensor(&mut w, d.bias());
            }
            Layer::AvgPool(p) => {
                w.put_u8(TAG_AVGPOOL);
                w.put_u32(p.k() as u32);
            }
            Layer::Relu => w.put_u8(TAG_RELU),
            Layer::Flatten => w.put_u8(TAG_FLATTEN),
        }
    }
    w.into_bytes().to_vec()
}

/// Deserializes a model from bytes.
///
/// # Errors
///
/// Returns [`AxError::Format`] on bad magic, truncation, inconsistent
/// tensors, or a conv layer the engines cannot run (a zero stride or a
/// non-square kernel).
pub fn model_from_bytes(bytes: &[u8]) -> Result<Sequential, AxError> {
    let mut r = ByteReader::new(bytes);
    let mut magic = [0u8; 4];
    for m in &mut magic {
        *m = r.get_u8()?;
    }
    if &magic != MAGIC {
        return Err(AxError::format("bad magic; not an AXM1 model artifact"));
    }
    let name = r.get_string()?;
    let n = r.get_u32()? as usize;
    if n > 10_000 {
        return Err(AxError::format("implausible layer count"));
    }
    let mut layers = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = r.get_u8()?;
        let layer = match tag {
            TAG_CONV => {
                let stride = r.get_u32()? as usize;
                let pad = r.get_u32()? as usize;
                let weight = get_tensor(&mut r)?;
                let bias = get_tensor(&mut r)?;
                if weight.shape().rank() != 4 || bias.len() != weight.dims()[0] || stride == 0 {
                    return Err(AxError::format("inconsistent conv layer"));
                }
                if weight.dims()[2] != weight.dims()[3] {
                    return Err(AxError::format("non-square conv kernel"));
                }
                Layer::Conv2d(Conv2d::from_parts(weight, bias, stride, pad))
            }
            TAG_DENSE => {
                let weight = get_tensor(&mut r)?;
                let bias = get_tensor(&mut r)?;
                if weight.shape().rank() != 2 || bias.len() != weight.dims()[0] {
                    return Err(AxError::format("inconsistent dense layer"));
                }
                Layer::Dense(Dense::from_parts(weight, bias))
            }
            TAG_AVGPOOL => {
                let k = r.get_u32()? as usize;
                if k == 0 {
                    return Err(AxError::format("zero pool window"));
                }
                Layer::AvgPool(AvgPool2d::new(k))
            }
            TAG_RELU => Layer::Relu,
            TAG_FLATTEN => Layer::Flatten,
            other => return Err(AxError::format(format!("unknown layer tag {other}"))),
        };
        layers.push(layer);
    }
    Ok(Sequential::new(name, layers))
}

/// Saves a model artifact to disk.
///
/// # Errors
///
/// Returns [`AxError::Io`] on filesystem failure.
pub fn save_model(model: &Sequential, path: impl AsRef<Path>) -> Result<(), AxError> {
    if let Some(parent) = path.as_ref().parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, model_to_bytes(model))?;
    Ok(())
}

/// Loads a model artifact from disk.
///
/// # Errors
///
/// Returns [`AxError::Io`] if the file cannot be read and
/// [`AxError::Format`] if it is not a valid artifact.
pub fn load_model(path: impl AsRef<Path>) -> Result<Sequential, AxError> {
    let bytes = std::fs::read(path)?;
    model_from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use axutil::rng::Rng;

    #[test]
    fn roundtrip_preserves_model_exactly() {
        let m = zoo::lenet5(&mut Rng::seed_from_u64(5));
        let bytes = model_to_bytes(&m);
        let m2 = model_from_bytes(&bytes).unwrap();
        assert_eq!(m, m2);
    }

    #[test]
    fn roundtrip_through_disk() {
        let m = zoo::ffnn(&mut Rng::seed_from_u64(6));
        let dir = std::env::temp_dir().join("axnn-serialize-test");
        let path = dir.join("ffnn.axm");
        save_model(&m, &path).unwrap();
        let m2 = load_model(&path).unwrap();
        assert_eq!(m, m2);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let m = zoo::ffnn(&mut Rng::seed_from_u64(6));
        let mut bytes = model_to_bytes(&m);
        bytes[0] = b'X';
        assert!(model_from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncated_artifact_is_rejected() {
        let m = zoo::ffnn(&mut Rng::seed_from_u64(6));
        let bytes = model_to_bytes(&m);
        for cut in [5, 20, bytes.len() / 2] {
            assert!(
                model_from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    /// A conv layer whose weight dims multiply past `usize::MAX`
    /// (`1 * 2^62 * 2 * 2 = 2^64`) must be rejected as malformed, not wrap
    /// to an empty tensor that matches its empty data.
    #[test]
    fn overflowing_shape_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_raw(MAGIC);
        w.put_str("hostile");
        w.put_u32(1);
        w.put_u8(TAG_CONV);
        w.put_u32(1);
        w.put_u32(0);
        w.put_u64_slice(&[1, 1 << 62, 2, 2]);
        w.put_f32_slice(&[]);
        w.put_u64_slice(&[1]);
        w.put_f32_slice(&[0.0]);
        let bytes = w.into_bytes().to_vec();
        match model_from_bytes(&bytes) {
            Err(AxError::Format(msg)) => assert!(msg.contains("overflows"), "{msg}"),
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    /// A `[1, 1, 3, 2]` conv kernel is well-formed bytes but no engine
    /// runs it, so the loader must refuse it rather than hand back a
    /// model whose first forward panics.
    #[test]
    fn non_square_conv_kernel_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_raw(MAGIC);
        w.put_str("oblong");
        w.put_u32(1);
        w.put_u8(TAG_CONV);
        w.put_u32(1);
        w.put_u32(0);
        put_tensor(&mut w, &Tensor::zeros(&[1, 1, 3, 2]));
        put_tensor(&mut w, &Tensor::zeros(&[1]));
        let bytes = w.into_bytes().to_vec();
        match model_from_bytes(&bytes) {
            Err(AxError::Format(msg)) => assert!(msg.contains("non-square"), "{msg}"),
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    #[test]
    fn forward_identical_after_roundtrip() {
        use axtensor::Tensor;
        let m = zoo::lenet5(&mut Rng::seed_from_u64(7));
        let m2 = model_from_bytes(&model_to_bytes(&m)).unwrap();
        let mut x = Tensor::zeros(&[1, 28, 28]);
        Rng::seed_from_u64(8).fill_range_f32(x.data_mut(), 0.0, 1.0);
        assert_eq!(m.forward(&x), m2.forward(&x));
    }
}
