//! Minimal binary checkpoint format for trained networks.
//!
//! Layout: the magic `LDMONN1\n`, then a `u32` array count, then for each
//! array a `u32` length and that many little-endian `f32`s. Arrays are the
//! network's parameters followed by its state buffers, in
//! [`Layer::visit_params`]/[`Layer::visit_buffers`] order — which is stable
//! for a fixed architecture, so a checkpoint can only be loaded into the
//! same architecture it was saved from.

use crate::layers::Layer;
use crate::NnError;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"LDMONN1\n";

/// Collects all arrays (parameters then buffers) of a network.
fn collect_arrays(net: &mut dyn Layer) -> Vec<Vec<f32>> {
    let mut arrays = Vec::new();
    net.visit_params(&mut |p| arrays.push(p.value.as_slice().to_vec()));
    net.visit_buffers(&mut |b| arrays.push(b.clone()));
    arrays
}

/// Serializes `net` to `writer`.
///
/// # Errors
///
/// Returns [`NnError::Io`] on write failure.
pub fn save_to<W: Write>(net: &mut dyn Layer, mut writer: W) -> Result<(), NnError> {
    let arrays = collect_arrays(net);
    writer.write_all(MAGIC)?;
    writer.write_all(&(arrays.len() as u32).to_le_bytes())?;
    for arr in arrays {
        writer.write_all(&(arr.len() as u32).to_le_bytes())?;
        for v in arr {
            writer.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Serializes `net` to the file at `path`. A mutable reference is required
/// because visiting parameters is a mutating traversal; the network values
/// are not changed.
///
/// # Errors
///
/// Returns [`NnError::Io`] on I/O failure.
pub fn save(net: &mut dyn Layer, path: impl AsRef<Path>) -> Result<(), NnError> {
    let file = std::fs::File::create(path)?;
    save_to(net, std::io::BufWriter::new(file))
}

/// Deserializes a checkpoint from `reader` into `net`.
///
/// # Errors
///
/// Returns [`NnError::Io`] on read failure or [`NnError::ShapeMismatch`]
/// when the checkpoint does not match the network architecture.
pub fn load_from<R: Read>(net: &mut dyn Layer, mut reader: R) -> Result<(), NnError> {
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(NnError::ShapeMismatch {
            detail: "bad magic: not an ldmo-nn checkpoint".to_owned(),
        });
    }
    let mut u32buf = [0u8; 4];
    reader.read_exact(&mut u32buf)?;
    let count = u32::from_le_bytes(u32buf) as usize;
    let mut arrays = Vec::with_capacity(count);
    for ai in 0..count {
        reader.read_exact(&mut u32buf)?;
        let len = u32::from_le_bytes(u32buf) as usize;
        let mut arr = vec![0.0f32; len];
        for v in &mut arr {
            reader.read_exact(&mut u32buf)?;
            *v = f32::from_le_bytes(u32buf);
        }
        // reject non-finite weights before anything touches the network —
        // one NaN here would poison every subsequent forward pass
        if let Some(bad) = arr.iter().position(|v| !v.is_finite()) {
            return Err(NnError::Corrupt {
                detail: format!("array {ai}, value {bad} is non-finite"),
            });
        }
        arrays.push(arr);
    }
    // count expected arrays first so a mismatch never half-loads the net
    let mut expected = 0usize;
    net.visit_params(&mut |_| expected += 1);
    net.visit_buffers(&mut |_| expected += 1);
    if expected != arrays.len() {
        return Err(NnError::ShapeMismatch {
            detail: format!(
                "checkpoint has {} arrays, network has {expected}",
                arrays.len()
            ),
        });
    }
    let mut iter = arrays.into_iter();
    let mut mismatch: Option<String> = None;
    net.visit_params(&mut |p| {
        if mismatch.is_some() {
            return;
        }
        let arr = iter.next().expect("length checked");
        if arr.len() != p.value.len() {
            mismatch = Some(format!(
                "parameter {} has {} values, checkpoint array has {}",
                p.name,
                p.value.len(),
                arr.len()
            ));
            return;
        }
        p.value.as_mut_slice().copy_from_slice(&arr);
    });
    net.visit_buffers(&mut |b| {
        if mismatch.is_some() {
            return;
        }
        let arr = iter.next().expect("length checked");
        if arr.len() != b.len() {
            mismatch = Some(format!(
                "buffer has {} values, checkpoint array has {}",
                b.len(),
                arr.len()
            ));
            return;
        }
        b.copy_from_slice(&arr);
    });
    match mismatch {
        Some(detail) => Err(NnError::ShapeMismatch { detail }),
        None => Ok(()),
    }
}

/// Deserializes the checkpoint at `path` into `net`.
///
/// # Errors
///
/// See [`load_from`].
pub fn load(net: &mut dyn Layer, path: impl AsRef<Path>) -> Result<(), NnError> {
    let mut bytes = std::fs::read(path)?;
    // chaos harness: an installed model fault corrupts the bytes between
    // read and parse (one relaxed load when no plan is installed)
    if let Some(model_fault) = ldmo_guard::fault::corrupt_model() {
        ldmo_guard::fault::corrupt_bytes(&mut bytes, model_fault);
    }
    load_from(net, bytes.as_slice())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{BatchNorm2d, Linear, Sequential};
    use crate::Tensor;

    fn sample_net(seed: u64) -> Sequential {
        Sequential::new()
            .with(Linear::new(4, 3, seed))
            .with(Linear::new(3, 1, seed ^ 1))
    }

    #[test]
    fn roundtrip_preserves_outputs() {
        let mut net = sample_net(11);
        let x = Tensor::from_vec(vec![1, 4], vec![0.1, -0.2, 0.3, 0.4]);
        let before = net.forward(&x, false);
        let mut buf = Vec::new();
        save_to(&mut net, &mut buf).expect("save");
        let mut other = sample_net(99); // different init
        load_from(&mut other, buf.as_slice()).expect("load");
        let after = other.forward(&x, false);
        assert_eq!(before.as_slice(), after.as_slice());
    }

    #[test]
    fn batchnorm_running_stats_roundtrip() {
        let mut bn = BatchNorm2d::new(2);
        let mut stats = [vec![1.0, 2.0], vec![3.0, 4.0]].into_iter();
        bn.visit_buffers(&mut |buf| *buf = stats.next().expect("mean, then var"));
        let mut buf = Vec::new();
        save_to(&mut bn, &mut buf).expect("save");
        let mut fresh = BatchNorm2d::new(2);
        load_from(&mut fresh, buf.as_slice()).expect("load");
        assert_eq!(fresh.running_mean(), &[1.0, 2.0]);
        assert_eq!(fresh.running_var(), &[3.0, 4.0]);
    }

    #[test]
    fn wrong_architecture_rejected() {
        let mut net = sample_net(1);
        let mut buf = Vec::new();
        save_to(&mut net, &mut buf).expect("save");
        let mut bigger = Sequential::new().with(Linear::new(5, 3, 0));
        assert!(matches!(
            load_from(&mut bigger, buf.as_slice()),
            Err(NnError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut net = sample_net(1);
        let err = load_from(&mut net, &b"NOTAMODEL0000"[..]);
        assert!(matches!(err, Err(NnError::ShapeMismatch { .. })));
    }

    #[test]
    fn truncated_file_is_io_error() {
        let mut net = sample_net(1);
        let mut buf = Vec::new();
        save_to(&mut net, &mut buf).expect("save");
        buf.truncate(buf.len() / 2);
        assert!(matches!(
            load_from(&mut net, buf.as_slice()),
            Err(NnError::Io(_))
        ));
    }

    #[test]
    fn nan_weight_is_rejected_as_corrupt() {
        let mut net = sample_net(1);
        let mut buf = Vec::new();
        save_to(&mut net, &mut buf).expect("save");
        // poison the first stored weight via the shared corruption helper
        ldmo_guard::fault::corrupt_bytes(&mut buf, ldmo_guard::ModelFault::NanWeight { index: 0 });
        let mut fresh = sample_net(7);
        let x = Tensor::from_vec(vec![1, 4], vec![0.1, -0.2, 0.3, 0.4]);
        let before = fresh.forward(&x, false).as_slice().to_vec();
        let err = load_from(&mut fresh, buf.as_slice());
        assert!(matches!(err, Err(NnError::Corrupt { .. })), "{err:?}");
        // the rejected load must not have touched the network
        assert_eq!(fresh.forward(&x, false).as_slice(), &before[..]);
    }

    #[test]
    fn errors_bridge_into_the_workspace_taxonomy() {
        let corrupt: ldmo_guard::LdmoError = NnError::Corrupt { detail: "x".into() }.into();
        assert_eq!(corrupt.exit_code(), 4);
        let io: ldmo_guard::LdmoError =
            NnError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "gone")).into();
        assert_eq!(io.exit_code(), 5);
    }
}
