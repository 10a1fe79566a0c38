//! Loaders for the genuine dataset file formats: MNIST's IDX format
//! (`train-images-idx3-ubyte` etc.) and the CIFAR-10 binary batches
//! (`data_batch_1.bin` ... `test_batch.bin`).
//!
//! [`load_mnist`] and [`load_cifar10`] parse the files in a directory their
//! caller passes. No experiment calls them: every experiment trains and
//! attacks on the synthetic stand-ins.

use crate::dataset::{Dataset, DatasetError};
use advcomp_tensor::Tensor;
use std::fs::File;
use std::io::Read;
use std::path::Path;

fn read_file(path: &Path) -> Result<Vec<u8>, DatasetError> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    Ok(buf)
}

fn be_u32(bytes: &[u8], offset: usize) -> Result<u32, DatasetError> {
    let slice: [u8; 4] = bytes
        .get(offset..offset + 4)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| DatasetError::Malformed("truncated IDX header".into()))?;
    Ok(u32::from_be_bytes(slice))
}

/// Parses an IDX3 (images) file into `(count, rows, cols, pixels)`.
pub fn parse_idx_images(bytes: &[u8]) -> Result<(usize, usize, usize, Vec<f32>), DatasetError> {
    if be_u32(bytes, 0)? != 0x0000_0803 {
        return Err(DatasetError::Malformed("bad IDX3 magic".into()));
    }
    let n = be_u32(bytes, 4)? as usize;
    let rows = be_u32(bytes, 8)? as usize;
    let cols = be_u32(bytes, 12)? as usize;
    let body = bytes
        .get(16..16 + n * rows * cols)
        .ok_or_else(|| DatasetError::Malformed("truncated IDX3 body".into()))?;
    Ok((
        n,
        rows,
        cols,
        body.iter().map(|&b| b as f32 / 255.0).collect(),
    ))
}

/// Parses an IDX1 (labels) file into a label list.
pub fn parse_idx_labels(bytes: &[u8]) -> Result<Vec<usize>, DatasetError> {
    if be_u32(bytes, 0)? != 0x0000_0801 {
        return Err(DatasetError::Malformed("bad IDX1 magic".into()));
    }
    let n = be_u32(bytes, 4)? as usize;
    let body = bytes
        .get(8..8 + n)
        .ok_or_else(|| DatasetError::Malformed("truncated IDX1 body".into()))?;
    Ok(body.iter().map(|&b| b as usize).collect())
}

/// Loads the four standard MNIST files from `dir`.
///
/// # Errors
///
/// I/O errors when files are missing; [`DatasetError::Malformed`] on format
/// violations.
pub fn load_mnist(dir: &Path) -> Result<(Dataset, Dataset), DatasetError> {
    let load_split = |images: &str, labels: &str| -> Result<Dataset, DatasetError> {
        let (n, rows, cols, pixels) = parse_idx_images(&read_file(&dir.join(images))?)?;
        let labels = parse_idx_labels(&read_file(&dir.join(labels))?)?;
        if labels.len() != n {
            return Err(DatasetError::Malformed(format!(
                "{n} images but {} labels",
                labels.len()
            )));
        }
        let images = Tensor::new(&[n, 1, rows, cols], pixels)?;
        Dataset::new(images, labels, 10)
    };
    Ok((
        load_split("train-images-idx3-ubyte", "train-labels-idx1-ubyte")?,
        load_split("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")?,
    ))
}

/// Parses one CIFAR-10 binary batch (label byte + 3072 pixel bytes per
/// record) into `(pixels, labels)`.
pub fn parse_cifar_batch(bytes: &[u8]) -> Result<(Vec<f32>, Vec<usize>), DatasetError> {
    const RECORD: usize = 1 + 3 * 32 * 32;
    if bytes.is_empty() || !bytes.len().is_multiple_of(RECORD) {
        return Err(DatasetError::Malformed(format!(
            "CIFAR batch length {} is not a multiple of {RECORD}",
            bytes.len()
        )));
    }
    let n = bytes.len() / RECORD;
    let mut pixels = Vec::with_capacity(n * (RECORD - 1));
    let mut labels = Vec::with_capacity(n);
    for rec in bytes.chunks_exact(RECORD) {
        let label = rec[0] as usize;
        if label >= 10 {
            return Err(DatasetError::Malformed(format!("CIFAR label {label} > 9")));
        }
        labels.push(label);
        pixels.extend(rec[1..].iter().map(|&b| b as f32 / 255.0));
    }
    Ok((pixels, labels))
}

/// Loads the five CIFAR-10 training batches and the test batch from `dir`.
///
/// # Errors
///
/// I/O errors when files are missing; [`DatasetError::Malformed`] on format
/// violations.
pub fn load_cifar10(dir: &Path) -> Result<(Dataset, Dataset), DatasetError> {
    let mut train_pixels = Vec::new();
    let mut train_labels = Vec::new();
    for i in 1..=5 {
        let (p, l) = parse_cifar_batch(&read_file(&dir.join(format!("data_batch_{i}.bin")))?)?;
        train_pixels.extend(p);
        train_labels.extend(l);
    }
    let n_train = train_labels.len();
    let train = Dataset::new(
        Tensor::new(&[n_train, 3, 32, 32], train_pixels)?,
        train_labels,
        10,
    )?;
    let (tp, tl) = parse_cifar_batch(&read_file(&dir.join("test_batch.bin"))?)?;
    let n_test = tl.len();
    let test = Dataset::new(Tensor::new(&[n_test, 3, 32, 32], tp)?, tl, 10)?;
    Ok((train, test))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx3(n: usize, rows: usize, cols: usize) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend(0x0803u32.to_be_bytes());
        b.extend((n as u32).to_be_bytes());
        b.extend((rows as u32).to_be_bytes());
        b.extend((cols as u32).to_be_bytes());
        b.extend(std::iter::repeat_n(128u8, n * rows * cols));
        b
    }

    #[test]
    fn parses_idx3() {
        let (n, r, c, px) = parse_idx_images(&idx3(2, 3, 3)).unwrap();
        assert_eq!((n, r, c), (2, 3, 3));
        assert_eq!(px.len(), 18);
        assert!((px[0] - 128.0 / 255.0).abs() < 1e-6);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let mut bad = idx3(1, 2, 2);
        bad[3] = 0x01;
        assert!(parse_idx_images(&bad).is_err());
        let mut trunc = idx3(2, 3, 3);
        trunc.truncate(20);
        assert!(parse_idx_images(&trunc).is_err());
        assert!(parse_idx_images(&[1, 2]).is_err());
    }

    #[test]
    fn parses_idx1() {
        let mut b = Vec::new();
        b.extend(0x0801u32.to_be_bytes());
        b.extend(3u32.to_be_bytes());
        b.extend([7u8, 0, 9]);
        assert_eq!(parse_idx_labels(&b).unwrap(), vec![7, 0, 9]);
        b[3] = 0x03;
        assert!(parse_idx_labels(&b).is_err());
    }

    #[test]
    fn parses_cifar_batch() {
        let mut rec = vec![3u8];
        rec.extend(std::iter::repeat_n(255u8, 3072));
        let (px, labels) = parse_cifar_batch(&rec).unwrap();
        assert_eq!(labels, vec![3]);
        assert_eq!(px.len(), 3072);
        assert_eq!(px[0], 1.0);
    }

    #[test]
    fn cifar_rejects_bad_records() {
        assert!(parse_cifar_batch(&[1, 2, 3]).is_err());
        assert!(parse_cifar_batch(&[]).is_err());
        let mut rec = vec![11u8]; // label out of range
        rec.extend(std::iter::repeat_n(0u8, 3072));
        assert!(parse_cifar_batch(&rec).is_err());
    }

    #[test]
    fn loaders_error_on_missing_dir() {
        let dir = Path::new("/nonexistent/advcomp");
        assert!(load_mnist(dir).is_err());
        assert!(load_cifar10(dir).is_err());
    }
}
