//! Model persistence: save a trained [`RegHdRegressor`] to a compact
//! binary file and load it back, bit-exactly.
//!
//! Because every encoder in this workspace is deterministic given its
//! [`EncoderSpec`], only the spec is stored — a few integers — plus the
//! learned state: integer cluster and model hypervectors, the encoding
//! centre, and the intercept. Binary copies and amplitudes are re-derived
//! on load, so a round-tripped model predicts **identically** to the
//! original in every quantisation mode.
//!
//! Format (little-endian): magic `RGHD`, version, config block, encoder
//! spec block, learned-state block. Loading decodes a byte slice through
//! [`hdc::wire::Reader`]: no count sizes a buffer before its bytes are
//! there, and an accepted file holds no byte [`save`] would not write.
//!
//! ```
//! use reghd::{RegHdRegressor, Regressor, config::RegHdConfig, persist};
//! use encoding::EncoderSpec;
//!
//! let spec = EncoderSpec::Nonlinear { input_dim: 2, dim: 256, seed: 1 };
//! let cfg = RegHdConfig::builder().dim(256).models(2).max_epochs(5).build();
//! let mut model = RegHdRegressor::new(cfg.clone(), spec.build());
//! let xs = vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![0.5, -0.5], vec![-1.0, 0.3]];
//! let ys = vec![0.0, 2.0, 0.5, -0.7];
//! model.fit(&xs, &ys);
//!
//! let mut buf = Vec::new();
//! persist::save(&model, &spec, &mut buf)?;
//! let (loaded, loaded_spec) = persist::load(&buf, 2)?;
//! assert_eq!(loaded_spec, spec);
//! assert_eq!(loaded.predict_one(&[0.5, -0.5]), model.predict_one(&[0.5, -0.5]));
//! # Ok::<(), reghd::persist::PersistError>(())
//! ```

use crate::banks::{ClusterBank, ModelBank};
use crate::config::{ClusterMode, PredictionMode, RegHdConfig, UpdateRule};
use crate::model::RegHdRegressor;
use crate::online::OnlineRegHd;
use encoding::EncoderSpec;
use hdc::wire::{Reader, WireError};
use hdc::RealHv;
use std::error::Error;
use std::fmt;
use std::io::Write;
use std::path::Path;

const MAGIC: &[u8; 4] = b"RGHD";
const VERSION: u16 = 1;
/// Version 2 adds a model-kind byte after the version so streaming
/// ([`OnlineRegHd`]) state can share the format. Batch models keep writing
/// version 1 (bit-identical to earlier releases); [`load`] accepts both.
const VERSION_KINDED: u16 = 2;
const KIND_BATCH: u8 = 0;
const KIND_ONLINE: u8 = 1;

/// Error raised by save/load.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The stream is not a RegHD model file, or is from an unsupported
    /// version, or is structurally inconsistent.
    Format(String),
    /// The file's encoder expects `encoded` input features, but the caller
    /// feeds `expected`. Refused before the encoder is built.
    Width {
        /// The encoder spec's input width.
        encoded: usize,
        /// The width the caller's rows have.
        expected: usize,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Format(m) => write!(f, "malformed model file: {m}"),
            PersistError::Width { encoded, expected } => {
                write!(
                    f,
                    "model encodes {encoded} features, the data has {expected}"
                )
            }
        }
    }
}

impl Error for PersistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Format(_) | PersistError::Width { .. } => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// A file that ends early is an unexpected end of file, as it was when
/// loads read from a stream; every other refusal is a format error.
impl From<WireError> for PersistError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated => PersistError::Io(std::io::ErrorKind::UnexpectedEof.into()),
            e => PersistError::Format(e.to_string()),
        }
    }
}

fn w_u8<W: Write>(w: &mut W, v: u8) -> Result<(), PersistError> {
    w.write_all(&[v])?;
    Ok(())
}

fn w_u16<W: Write>(w: &mut W, v: u16) -> Result<(), PersistError> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn w_u64<W: Write>(w: &mut W, v: u64) -> Result<(), PersistError> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn w_f32<W: Write>(w: &mut W, v: f32) -> Result<(), PersistError> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn w_f64<W: Write>(w: &mut W, v: f64) -> Result<(), PersistError> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn w_hv<W: Write>(w: &mut W, hv: &RealHv) -> Result<(), PersistError> {
    w_u64(w, hv.dim() as u64)?;
    for &v in hv.as_slice() {
        w_f32(w, v)?;
    }
    Ok(())
}

fn r_hv(r: &mut Reader, expect_dim: usize) -> Result<RealHv, PersistError> {
    let dim = r.usize()?;
    if dim != expect_dim {
        return Err(PersistError::Format(format!(
            "hypervector dim {dim} does not match config dim {expect_dim}"
        )));
    }
    Ok(RealHv::from_vec(r.f32s(dim)?))
}

fn cluster_mode_tag(m: ClusterMode) -> u8 {
    match m {
        ClusterMode::Integer => 0,
        ClusterMode::FrameworkBinary => 1,
        ClusterMode::NaiveBinary => 2,
    }
}

fn cluster_mode_from(t: u8) -> Result<ClusterMode, PersistError> {
    Ok(match t {
        0 => ClusterMode::Integer,
        1 => ClusterMode::FrameworkBinary,
        2 => ClusterMode::NaiveBinary,
        _ => return Err(PersistError::Format(format!("bad cluster mode tag {t}"))),
    })
}

fn pred_mode_tag(m: PredictionMode) -> u8 {
    match m {
        PredictionMode::Full => 0,
        PredictionMode::BinaryQuery => 1,
        PredictionMode::BinaryModel => 2,
        PredictionMode::BinaryBoth => 3,
    }
}

fn pred_mode_from(t: u8) -> Result<PredictionMode, PersistError> {
    Ok(match t {
        0 => PredictionMode::Full,
        1 => PredictionMode::BinaryQuery,
        2 => PredictionMode::BinaryModel,
        3 => PredictionMode::BinaryBoth,
        _ => return Err(PersistError::Format(format!("bad prediction mode tag {t}"))),
    })
}

fn update_rule_tag(r: UpdateRule) -> u8 {
    match r {
        UpdateRule::ConfidenceWeighted => 0,
        UpdateRule::SharedError => 1,
        UpdateRule::ArgmaxOnly => 2,
    }
}

fn update_rule_from(t: u8) -> Result<UpdateRule, PersistError> {
    Ok(match t {
        0 => UpdateRule::ConfidenceWeighted,
        1 => UpdateRule::SharedError,
        2 => UpdateRule::ArgmaxOnly,
        _ => return Err(PersistError::Format(format!("bad update rule tag {t}"))),
    })
}

fn write_spec<W: Write>(w: &mut W, spec: &EncoderSpec) -> Result<(), PersistError> {
    w_u8(w, spec.kind_tag())?;
    match *spec {
        EncoderSpec::Nonlinear {
            input_dim,
            dim,
            seed,
        }
        | EncoderSpec::Projection {
            input_dim,
            dim,
            seed,
        } => {
            w_u64(w, input_dim as u64)?;
            w_u64(w, dim as u64)?;
            w_u64(w, seed)?;
        }
        EncoderSpec::Rff {
            input_dim,
            dim,
            bandwidth,
            seed,
        } => {
            w_u64(w, input_dim as u64)?;
            w_u64(w, dim as u64)?;
            w_f32(w, bandwidth)?;
            w_u64(w, seed)?;
        }
        EncoderSpec::IdLevel {
            input_dim,
            dim,
            levels,
            range,
            seed,
        } => {
            w_u64(w, input_dim as u64)?;
            w_u64(w, dim as u64)?;
            w_u64(w, levels as u64)?;
            w_f32(w, range.0)?;
            w_f32(w, range.1)?;
            w_u64(w, seed)?;
        }
    }
    Ok(())
}

fn read_spec(r: &mut Reader) -> Result<EncoderSpec, PersistError> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => EncoderSpec::Nonlinear {
            input_dim: r.usize()?,
            dim: r.usize()?,
            seed: r.u64()?,
        },
        1 => EncoderSpec::Rff {
            input_dim: r.usize()?,
            dim: r.usize()?,
            bandwidth: r.f32()?,
            seed: r.u64()?,
        },
        2 => EncoderSpec::Projection {
            input_dim: r.usize()?,
            dim: r.usize()?,
            seed: r.u64()?,
        },
        3 => EncoderSpec::IdLevel {
            input_dim: r.usize()?,
            dim: r.usize()?,
            levels: r.usize()?,
            range: (r.f32()?, r.f32()?),
            seed: r.u64()?,
        },
        _ => return Err(PersistError::Format(format!("bad encoder tag {tag}"))),
    })
}

fn write_config<W: Write>(w: &mut W, cfg: &RegHdConfig) -> Result<(), PersistError> {
    w_u64(w, cfg.dim as u64)?;
    w_u64(w, cfg.models as u64)?;
    w_f32(w, cfg.learning_rate)?;
    w_u64(w, cfg.max_epochs as u64)?;
    w_u64(w, cfg.min_epochs as u64)?;
    w_f32(w, cfg.convergence_tol)?;
    w_u64(w, cfg.patience as u64)?;
    w_f32(w, cfg.softmax_beta)?;
    w_u64(w, cfg.quantize_batch as u64)?;
    w_u8(w, cluster_mode_tag(cfg.cluster_mode))?;
    w_u8(w, pred_mode_tag(cfg.prediction_mode))?;
    w_u8(w, update_rule_tag(cfg.update_rule))?;
    w_u8(w, u8::from(cfg.normalize_encodings))?;
    w_u8(w, u8::from(cfg.center_encodings))?;
    w_u8(w, u8::from(cfg.intercept))?;
    w_u64(w, cfg.seed)?;
    Ok(())
}

fn read_config(r: &mut Reader) -> Result<RegHdConfig, PersistError> {
    let cfg = RegHdConfig {
        dim: r.usize()?,
        models: r.usize()?,
        learning_rate: r.f32()?,
        max_epochs: r.usize()?,
        min_epochs: r.usize()?,
        convergence_tol: r.f32()?,
        patience: r.usize()?,
        softmax_beta: r.f32()?,
        quantize_batch: r.usize()?,
        cluster_mode: cluster_mode_from(r.u8()?)?,
        prediction_mode: pred_mode_from(r.u8()?)?,
        update_rule: update_rule_from(r.u8()?)?,
        normalize_encodings: r.flag()?,
        center_encodings: r.flag()?,
        intercept: r.flag()?,
        seed: r.u64()?,
    };
    cfg.validate().map_err(PersistError::Format)?;
    check_cells("model count:", cfg.models, cfg.dim)?;
    Ok(cfg)
}

/// Most cells a persisted file may ask the loader to materialise in one
/// table: `input_dim × dim` projection weights or `levels × dim`
/// level-chain components of the encoder the spec builds, or `models ×
/// dim` components of one learned bank. The encoder's tables are derived
/// from spec integers, not read, so no byte count bounds them; the banks
/// are read, so the reader also refuses them unless their bytes are there.
/// A section CRC is a checksum, not a MAC, so these fields must be in
/// range before anything is built.
const MAX_SPEC_CELLS: usize = 1 << 28;

/// Refuses a `rows × dim` table beyond [`MAX_SPEC_CELLS`] (or an empty
/// one); `what` names the table in the error.
fn check_cells(what: &str, rows: usize, dim: usize) -> Result<(), PersistError> {
    match rows.checked_mul(dim) {
        Some(cells) if rows > 0 && cells <= MAX_SPEC_CELLS => Ok(()),
        _ => Err(PersistError::Format(format!(
            "implausible {what} {rows} x dim {dim}"
        ))),
    }
}

fn read_spec_checked(r: &mut Reader, dim: usize) -> Result<EncoderSpec, PersistError> {
    let spec = read_spec(r)?;
    if spec.dim() != dim {
        return Err(PersistError::Format(format!(
            "encoder dim {} does not match config dim {dim}",
            spec.dim()
        )));
    }
    check_cells("encoder shape: input_dim", spec.input_dim(), dim)?;
    match spec {
        EncoderSpec::Rff { bandwidth, .. } if !(bandwidth > 0.0 && bandwidth.is_finite()) => Err(
            PersistError::Format(format!("bad RFF bandwidth {bandwidth}")),
        ),
        EncoderSpec::IdLevel { levels, range, .. } => {
            check_cells("encoder shape: levels", levels, dim)?;
            if levels < 2 || range.0.partial_cmp(&range.1) != Some(std::cmp::Ordering::Less) {
                return Err(PersistError::Format(format!(
                    "bad ID-level spec: {levels} levels over {range:?}"
                )));
            }
            Ok(spec)
        }
        _ => Ok(spec),
    }
}

/// Checks the magic and the version, and returns the kind of model the
/// file holds: version 1 files hold batch models, version 2 files say.
fn read_kind(r: &mut Reader) -> Result<u8, PersistError> {
    if r.bytes(4)? != MAGIC {
        return Err(PersistError::Format("bad magic".to_string()));
    }
    match r.u16()? {
        VERSION => Ok(KIND_BATCH),
        VERSION_KINDED => match r.u8()? {
            kind @ (KIND_BATCH | KIND_ONLINE) => Ok(kind),
            kind => Err(PersistError::Format(format!("bad model kind {kind}"))),
        },
        version => Err(PersistError::Format(format!(
            "unsupported version {version} (expected {VERSION} or {VERSION_KINDED})"
        ))),
    }
}

/// Reads the config and encoder spec blocks. A spec of another width than
/// the caller's rows (`input_dim`) is refused here, before anything is
/// built from it.
fn read_head(r: &mut Reader, input_dim: usize) -> Result<(RegHdConfig, EncoderSpec), PersistError> {
    let cfg = read_config(r)?;
    let spec = read_spec_checked(r, cfg.dim)?;
    if spec.input_dim() != input_dim {
        return Err(PersistError::Width {
            encoded: spec.input_dim(),
            expected: input_dim,
        });
    }
    Ok((cfg, spec))
}

/// Writes the learned banks' integer copies: every cluster, then every
/// model. Binary copies and amplitudes are re-derived on load.
fn write_banks<W: Write>(
    w: &mut W,
    clusters: &ClusterBank,
    models: &ModelBank,
) -> Result<(), PersistError> {
    for hv in clusters
        .integer_clusters()
        .iter()
        .chain(models.integer_models())
    {
        w_hv(w, hv)?;
    }
    Ok(())
}

/// Reads what [`write_banks`] wrote: `(clusters, models)`, `cfg.models`
/// hypervectors of `cfg.dim` each.
fn read_banks(
    r: &mut Reader,
    cfg: &RegHdConfig,
) -> Result<(Vec<RealHv>, Vec<RealHv>), PersistError> {
    let mut bank = || -> Result<Vec<RealHv>, PersistError> {
        (0..cfg.models).map(|_| r_hv(r, cfg.dim)).collect()
    };
    Ok((bank()?, bank()?))
}

/// Serialises a trained model to any writer. `spec` must describe the
/// encoder the model was built with (the library cannot recover it from
/// the trait object).
///
/// # Errors
///
/// Returns [`PersistError::Io`] on write failure.
pub fn save<W: Write>(
    model: &RegHdRegressor,
    spec: &EncoderSpec,
    w: &mut W,
) -> Result<(), PersistError> {
    let cfg = model.config();
    w.write_all(MAGIC)?;
    w_u16(w, VERSION)?;
    write_config(w, cfg)?;
    write_spec(w, spec)?;
    // Learned state.
    w_f32(w, model.intercept())?;
    match model.center() {
        Some(c) => {
            w_u8(w, 1)?;
            w_hv(w, c)?;
        }
        None => w_u8(w, 0)?,
    }
    write_banks(w, model.clusters(), model.models())
}

/// Deserialises a model from its bytes, together with the encoder spec
/// the file carries — the spec the returned model encodes with, and the
/// one to pass back to [`save`]. The caller names the width of the rows it
/// will feed (`input_dim`), and a file whose encoder expects another width
/// is refused before that encoder is built: a spec's tables are derived,
/// not read, so no byte count bounds them.
///
/// # Errors
///
/// Returns [`PersistError::Format`] when the bytes are not a valid model
/// file (wrong magic/version, inconsistent shapes, bad enum tags or flags,
/// trailing bytes), [`PersistError::Width`] when its encoder expects
/// another width, and [`PersistError::Io`] of kind `UnexpectedEof` when
/// they end early.
pub fn load(bytes: &[u8], input_dim: usize) -> Result<(RegHdRegressor, EncoderSpec), PersistError> {
    let mut r = Reader::new(bytes);
    if read_kind(&mut r)? == KIND_ONLINE {
        return Err(PersistError::Format(
            "this file holds an online (streaming) model: use load_online".to_string(),
        ));
    }
    let (cfg, spec) = read_head(&mut r, input_dim)?;
    let intercept = r.f32()?;
    let center = if r.flag()? {
        Some(r_hv(&mut r, cfg.dim)?)
    } else {
        None
    };
    let (clusters, model_hvs) = read_banks(&mut r, &cfg)?;
    r.finish()?;
    let model =
        RegHdRegressor::from_parts(cfg, spec.build(), clusters, model_hvs, center, intercept);
    Ok((model, spec))
}

/// Saves a model to a file path. See [`save`].
///
/// # Errors
///
/// Returns [`PersistError::Io`] on filesystem failure.
pub fn save_to_file<P: AsRef<Path>>(
    model: &RegHdRegressor,
    spec: &EncoderSpec,
    path: P,
) -> Result<(), PersistError> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    save(model, spec, &mut f)
}

/// Loads a model for `input_dim`-wide rows from a file path. See [`load`].
///
/// # Errors
///
/// Returns [`PersistError`] on filesystem failure or malformed content.
pub fn load_from_file<P: AsRef<Path>>(
    path: P,
    input_dim: usize,
) -> Result<(RegHdRegressor, EncoderSpec), PersistError> {
    load(&std::fs::read(path)?, input_dim)
}

/// Serialises a streaming [`OnlineRegHd`] model to any writer.
///
/// Beyond the batch format this stores the training cursor — samples seen,
/// the prequential EWMA, and per-cluster error estimates — so a resumed
/// trainer continues the exact statistic stream it left off. The binary
/// bank copies are *not* stored (they are re-derived on load), so for a
/// bit-exact round-trip in the binary prediction/cluster modes call
/// [`OnlineRegHd::quantize_now`] before saving; the default
/// `Integer`/`Full` modes are always bit-exact.
///
/// # Errors
///
/// Returns [`PersistError::Io`] on write failure.
pub fn save_online<W: Write>(
    model: &OnlineRegHd,
    spec: &EncoderSpec,
    w: &mut W,
) -> Result<(), PersistError> {
    let cfg = model.config();
    w.write_all(MAGIC)?;
    w_u16(w, VERSION_KINDED)?;
    w_u8(w, KIND_ONLINE)?;
    write_config(w, cfg)?;
    write_spec(w, spec)?;
    // Learned state + training cursor.
    w_f32(w, model.intercept())?;
    w_u64(w, model.samples_seen())?;
    w_f64(w, model.ewma_sq_err_raw())?;
    for &e in model.cluster_errors() {
        w_f64(w, e)?;
    }
    write_banks(w, model.clusters(), model.models())
}

/// Deserialises a streaming model saved by [`save_online`] for
/// `input_dim`-wide rows, together with the encoder spec the file carries
/// (see [`load`]).
///
/// # Errors
///
/// As [`load`]; batch files, which must go through [`load`], are format
/// errors.
pub fn load_online(
    bytes: &[u8],
    input_dim: usize,
) -> Result<(OnlineRegHd, EncoderSpec), PersistError> {
    let mut r = Reader::new(bytes);
    if read_kind(&mut r)? == KIND_BATCH {
        return Err(PersistError::Format(
            "this file holds a batch model: use load".to_string(),
        ));
    }
    let (cfg, spec) = read_head(&mut r, input_dim)?;
    let intercept = r.f32()?;
    let samples_seen = r.u64()?;
    let ewma_sq_err = r.f64()?;
    let cluster_err = r.f64s(cfg.models)?;
    let (clusters, model_hvs) = read_banks(&mut r, &cfg)?;
    r.finish()?;
    let model = OnlineRegHd::from_parts(
        cfg,
        spec.build(),
        clusters,
        model_hvs,
        intercept,
        samples_seen,
        ewma_sq_err,
        cluster_err,
    );
    Ok((model, spec))
}

/// Saves a streaming model to a file path. See [`save_online`].
///
/// # Errors
///
/// Returns [`PersistError::Io`] on filesystem failure.
pub fn save_online_to_file<P: AsRef<Path>>(
    model: &OnlineRegHd,
    spec: &EncoderSpec,
    path: P,
) -> Result<(), PersistError> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    save_online(model, spec, &mut f)
}

/// Loads a streaming model for `input_dim`-wide rows from a file path. See
/// [`load_online`].
///
/// # Errors
///
/// Returns [`PersistError`] on filesystem failure or malformed content.
pub fn load_online_from_file<P: AsRef<Path>>(
    path: P,
    input_dim: usize,
) -> Result<(OnlineRegHd, EncoderSpec), PersistError> {
    load_online(&std::fs::read(path)?, input_dim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Regressor;

    fn trained(pred: PredictionMode) -> (RegHdRegressor, EncoderSpec, Vec<Vec<f32>>) {
        let spec = EncoderSpec::Nonlinear {
            input_dim: 3,
            dim: 256,
            seed: 5,
        };
        let cfg = RegHdConfig::builder()
            .dim(256)
            .models(4)
            .max_epochs(6)
            .prediction_mode(pred)
            .cluster_mode(ClusterMode::FrameworkBinary)
            .seed(5)
            .build();
        let mut m = RegHdRegressor::new(cfg, spec.build());
        let xs: Vec<Vec<f32>> = (0..60)
            .map(|i| vec![(i % 5) as f32, (i % 7) as f32 / 7.0, -(i as f32) / 60.0])
            .collect();
        let ys: Vec<f32> = xs.iter().map(|x| x[0] - x[1] + 2.0 * x[2]).collect();
        m.fit(&xs, &ys);
        (m, spec, xs)
    }

    #[test]
    fn roundtrip_predicts_identically_in_every_mode() {
        for pred in PredictionMode::ALL {
            let (model, spec, xs) = trained(pred);
            let mut buf = Vec::new();
            save(&model, &spec, &mut buf).unwrap();
            let (loaded, loaded_spec) = load(&buf, 3).unwrap();
            assert_eq!(loaded_spec, spec);
            for x in xs.iter().take(10) {
                assert_eq!(
                    loaded.predict_one(x),
                    model.predict_one(x),
                    "mode {pred:?} roundtrip mismatch"
                );
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let (model, spec, xs) = trained(PredictionMode::Full);
        let path = std::env::temp_dir().join("reghd_persist_test.rghd");
        save_to_file(&model, &spec, &path).unwrap();
        let (loaded, _) = load_from_file(&path, 3).unwrap();
        assert_eq!(loaded.predict_one(&xs[0]), model.predict_one(&xs[0]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let err = load(b"NOPE\x01\x00", 3).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)));
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&99u16.to_le_bytes());
        let err = load(&buf, 3).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn rejects_truncated_stream() {
        let (model, spec, _) = trained(PredictionMode::Full);
        let mut buf = Vec::new();
        save(&model, &spec, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(matches!(load(&buf, 3).unwrap_err(), PersistError::Io(_)));
    }

    #[test]
    fn rejects_trailing_bytes() {
        // An accepted file re-encodes to itself, so nothing may follow
        // the last hypervector.
        let (model, spec, _) = trained(PredictionMode::Full);
        let mut buf = Vec::new();
        save(&model, &spec, &mut buf).unwrap();
        buf.extend([0u8; 8]);
        let err = load(&buf, 3).unwrap_err();
        assert!(err.to_string().contains("8 trailing bytes"), "err: {err}");
        let (online, ospec, _) = streamed(8);
        let mut buf = Vec::new();
        save_online(&online, &ospec, &mut buf).unwrap();
        buf.push(0);
        let err = load_online(&buf, 3).unwrap_err();
        assert!(err.to_string().contains("1 trailing bytes"), "err: {err}");
    }

    #[test]
    fn rejects_flag_bytes_other_than_zero_or_one() {
        // The config's three flags follow its three enum tags (offsets
        // 69–71 of a batch file, one later in a v2 online file, after the
        // kind byte). A batch file's centre-present byte follows the
        // 25-byte Nonlinear spec block and the intercept, at 109.
        let (model, spec, _) = trained(PredictionMode::Full);
        let mut batch = Vec::new();
        save(&model, &spec, &mut batch).unwrap();
        let (online, ospec, _) = streamed(8);
        let mut stream = Vec::new();
        save_online(&online, &ospec, &mut stream).unwrap();
        let refused = |err: PersistError| matches!(&err, PersistError::Format(m) if m.contains("flag byte 7"));
        for at in [69, 70, 71, 109] {
            let mut buf = batch.clone();
            assert!(buf[at] <= 1, "offset {at} holds a flag");
            buf[at] = 7;
            assert!(refused(load(&buf, 3).unwrap_err()), "offset {at}");
        }
        for at in [70, 71, 72] {
            let mut buf = stream.clone();
            assert!(buf[at] <= 1, "offset {at} holds a flag");
            buf[at] = 7;
            assert!(refused(load_online(&buf, 3).unwrap_err()), "offset {at}");
        }
    }

    #[test]
    fn width_is_checked_before_the_encoder_is_built() {
        let (model, spec, _) = trained(PredictionMode::Full);
        let mut buf = Vec::new();
        save(&model, &spec, &mut buf).unwrap();
        assert!(load(&buf, 3).is_ok());
        let err = load(&buf, 4).unwrap_err();
        assert!(
            matches!(
                err,
                PersistError::Width {
                    encoded: 3,
                    expected: 4
                }
            ),
            "err: {err}"
        );
        let (online, ospec, _) = streamed(8);
        let mut buf = Vec::new();
        save_online(&online, &ospec, &mut buf).unwrap();
        assert!(load_online(&buf, 3).is_ok());
        let err = load_online(&buf, 2).unwrap_err();
        assert_eq!(err.to_string(), "model encodes 3 features, the data has 2");
    }

    #[test]
    fn rejects_corrupted_enum_tag() {
        let (model, spec, _) = trained(PredictionMode::Full);
        let mut buf = Vec::new();
        save(&model, &spec, &mut buf).unwrap();
        // The cluster-mode tag sits at a fixed offset:
        // 4 magic + 2 version + 8 dim + 8 models + 4 lr + 8 max + 8 min +
        // 4 tol + 8 patience + 4 beta + 8 qbatch = 66.
        buf[66] = 200;
        let err = load(&buf, 3).unwrap_err();
        assert!(err.to_string().contains("cluster mode"), "err: {err}");
    }

    #[test]
    fn out_of_range_specs_are_format_errors_not_panics() {
        let (model, _, _) = trained(PredictionMode::Full);
        let (online, _, _) = streamed(8);
        let hostile = [
            EncoderSpec::Nonlinear {
                input_dim: 0,
                dim: 256,
                seed: 5,
            },
            EncoderSpec::Nonlinear {
                input_dim: 1 << 40,
                dim: 256,
                seed: 5,
            },
            EncoderSpec::Projection {
                input_dim: usize::MAX,
                dim: 256,
                seed: 5,
            },
            EncoderSpec::Rff {
                input_dim: 3,
                dim: 256,
                bandwidth: f32::NAN,
                seed: 5,
            },
            EncoderSpec::IdLevel {
                input_dim: 3,
                dim: 256,
                levels: 1,
                range: (0.0, 1.0),
                seed: 5,
            },
            EncoderSpec::IdLevel {
                input_dim: 3,
                dim: 256,
                levels: 1 << 40,
                range: (0.0, 1.0),
                seed: 5,
            },
            EncoderSpec::IdLevel {
                input_dim: 3,
                dim: 256,
                levels: 4,
                range: (1.0, 1.0),
                seed: 5,
            },
        ];
        for spec in &hostile {
            let mut buf = Vec::new();
            save(&model, spec, &mut buf).unwrap();
            let err = load(&buf, 3).unwrap_err();
            assert!(matches!(err, PersistError::Format(_)), "{spec:?}: {err}");
            buf.clear();
            save_online(&online, spec, &mut buf).unwrap();
            let err = load_online(&buf, 3).unwrap_err();
            assert!(matches!(err, PersistError::Format(_)), "{spec:?}: {err}");
        }
    }

    #[test]
    fn hostile_model_counts_are_format_errors_not_aborts() {
        // `models` is the second config field, after the magic, the
        // version (and, in v2 files, the kind byte) and `dim`.
        let (model, spec, _) = trained(PredictionMode::Full);
        let mut batch = Vec::new();
        save(&model, &spec, &mut batch).unwrap();
        let (online, ospec, _) = streamed(8);
        let mut stream = Vec::new();
        save_online(&online, &ospec, &mut stream).unwrap();
        let refused =
            |err: PersistError| matches!(err, PersistError::Format(m) if m.contains("model count"));
        for models in [1u64 << 40, 1 << 61] {
            let mut buf = batch.clone();
            buf[14..22].copy_from_slice(&models.to_le_bytes());
            assert!(refused(load(&buf, 3).unwrap_err()), "{models}");
            let mut buf = stream.clone();
            buf[15..23].copy_from_slice(&models.to_le_bytes());
            assert!(refused(load_online(&buf, 3).unwrap_err()), "{models}");
        }
    }

    #[test]
    fn config_survives_roundtrip() {
        let (model, spec, _) = trained(PredictionMode::BinaryQuery);
        let mut buf = Vec::new();
        save(&model, &spec, &mut buf).unwrap();
        let (loaded, _) = load(&buf, 3).unwrap();
        assert_eq!(loaded.config(), model.config());
        assert_eq!(loaded.intercept(), model.intercept());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PersistError>();
    }

    fn streamed(n: usize) -> (OnlineRegHd, EncoderSpec, Vec<Vec<f32>>) {
        let spec = EncoderSpec::Nonlinear {
            input_dim: 3,
            dim: 256,
            seed: 9,
        };
        let cfg = RegHdConfig::builder().dim(256).models(4).seed(9).build();
        let mut m = OnlineRegHd::new(cfg, spec.build());
        let xs: Vec<Vec<f32>> = (0..n)
            .map(|i| vec![(i % 5) as f32, (i % 7) as f32 / 7.0, -(i as f32) / 60.0])
            .collect();
        for x in &xs {
            let y = x[0] - x[1] + 2.0 * x[2];
            m.update(x, y);
        }
        (m, spec, xs)
    }

    #[test]
    fn online_roundtrip_is_bit_exact_at_quantization_boundary() {
        let (mut model, spec, xs) = streamed(60);
        model.quantize_now();
        let mut buf = Vec::new();
        save_online(&model, &spec, &mut buf).unwrap();
        let (mut loaded, loaded_spec) = load_online(&buf, 3).unwrap();
        assert_eq!(loaded_spec, spec);

        assert_eq!(loaded.samples_seen(), model.samples_seen());
        assert_eq!(loaded.prequential_mse(), model.prequential_mse());
        assert_eq!(loaded.cluster_errors(), model.cluster_errors());
        for x in xs.iter().take(10) {
            assert_eq!(loaded.predict_one(x), model.predict_one(x));
        }
        // Continued training must also agree bit-for-bit: the persisted
        // cursor (samples_seen, EWMA, per-cluster errors) drives the same
        // update trajectory as the original.
        for x in xs.iter().take(20) {
            let y = x[0] + 1.0;
            assert_eq!(loaded.update(x, y), model.update(x, y));
        }
        assert_eq!(loaded.prequential_mse(), model.prequential_mse());
    }

    #[test]
    fn online_file_roundtrip() {
        let (mut model, spec, xs) = streamed(40);
        model.quantize_now();
        let path = std::env::temp_dir().join("reghd_persist_online_test.rghd");
        save_online_to_file(&model, &spec, &path).unwrap();
        let (loaded, _) = load_online_from_file(&path, 3).unwrap();
        assert_eq!(loaded.predict_one(&xs[0]), model.predict_one(&xs[0]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn online_and_batch_loaders_reject_each_others_files() {
        let (online, ospec, _) = streamed(30);
        let mut obuf = Vec::new();
        save_online(&online, &ospec, &mut obuf).unwrap();
        let err = load(&obuf, 3).unwrap_err();
        assert!(err.to_string().contains("load_online"), "err: {err}");

        let (batch, bspec, _) = trained(PredictionMode::Full);
        let mut bbuf = Vec::new();
        save(&batch, &bspec, &mut bbuf).unwrap();
        let err = load_online(&bbuf, 3).unwrap_err();
        assert!(err.to_string().contains("batch model"), "err: {err}");
    }
}
