//! Binary serialization of learned state.
//!
//! Verdict's intelligence — the query synopsis and the trained
//! maximum-entropy model — lives in memory; this module gives every piece
//! of that state a stable, versioned binary form so the `verdict-store`
//! crate can write it to disk and a restarted session can pick up exactly
//! where the previous one stopped.
//!
//! Design rules:
//!
//! - **Bit-exact floats.** `f64` values are encoded as raw IEEE-754 bits
//!   (little-endian), so a save/load round trip reproduces answers and
//!   error bounds *exactly*, not approximately.
//! - **Self-delimiting values.** Every composite encodes its own lengths;
//!   a [`Decoder`] can never read past a corrupt length without returning
//!   [`PersistError::UnexpectedEof`].
//! - **No versioning here.** Layout versioning (magic, version numbers,
//!   checksums) is the store's job; this module defines only the payload
//!   encoding, which is versioned as a whole by the container.

use verdict_linalg::Cholesky;
use verdict_storage::Value;

use crate::covariance::AggMode;
use crate::engine::EngineStats;
use crate::inference::TrainedModel;
use crate::kernel::KernelParams;
use crate::learning::PriorMean;
use crate::region::{DimConstraint, DimKind, DimensionSpec, Region, SchemaInfo};
use crate::snippet::{AggKey, Observation};
use crate::synopsis::{QuerySynopsis, SynopsisEntry};
use crate::VerdictConfig;

/// Errors raised while decoding persisted state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The buffer ended before the value did.
    UnexpectedEof,
    /// A tag, count, or invariant did not decode to anything sensible.
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::UnexpectedEof => write!(f, "unexpected end of persisted data"),
            PersistError::Corrupt(m) => write!(f, "corrupt persisted data: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Decoding result alias.
pub type PersistResult<T> = std::result::Result<T, PersistError>;

/// Append-only byte sink for encoding.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64` (portable across word sizes).
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` as raw IEEE-754 bits.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes raw bytes (caller owns framing).
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// Cursor over encoded bytes for decoding.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decoder over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor consumed every byte.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> PersistResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(PersistError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> PersistResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> PersistResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> PersistResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a length written by [`Encoder::put_len`] that counts
    /// *following encoded data*, bounds-checked against the bytes
    /// remaining so corrupt lengths fail fast instead of attempting
    /// absurd allocations. For pure counters with no trailing data (e.g.
    /// configured capacities), use [`Decoder::take_count`].
    pub fn take_len(&mut self) -> PersistResult<usize> {
        let v = self.take_u64()?;
        if v > self.remaining() as u64 * 64 + 1_048_576 {
            return Err(PersistError::Corrupt(format!("implausible length {v}")));
        }
        Ok(v as usize)
    }

    /// Reads a `usize` counter that does not gate any following data —
    /// any value is legitimate (e.g. `synopsis_capacity: usize::MAX` to
    /// disable eviction), so no plausibility bound applies.
    pub fn take_count(&mut self) -> PersistResult<usize> {
        Ok(self.take_u64()? as usize)
    }

    /// Reads an `f64` from raw bits.
    pub fn take_f64(&mut self) -> PersistResult<f64> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a bool.
    pub fn take_bool(&mut self) -> PersistResult<bool> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(PersistError::Corrupt(format!("bool byte {v}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> PersistResult<String> {
        let n = self.take_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Corrupt("invalid utf-8 string".into()))
    }
}

/// Types with a stable binary form.
pub trait Persist: Sized {
    /// Appends the binary form to `enc`.
    fn encode(&self, enc: &mut Encoder);

    /// Reads one value back.
    fn decode(dec: &mut Decoder<'_>) -> PersistResult<Self>;

    /// Convenience: encodes into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.into_bytes()
    }

    /// Convenience: decodes from a byte slice, requiring full consumption.
    fn from_bytes(bytes: &[u8]) -> PersistResult<Self> {
        let mut dec = Decoder::new(bytes);
        let v = Self::decode(&mut dec)?;
        if !dec.is_exhausted() {
            return Err(PersistError::Corrupt(format!(
                "{} trailing bytes",
                dec.remaining()
            )));
        }
        Ok(v)
    }
}

fn encode_vec<'a, T: Persist + 'a, I>(items: I, enc: &mut Encoder)
where
    I: IntoIterator<Item = &'a T, IntoIter: ExactSizeIterator>,
{
    let items = items.into_iter();
    enc.put_len(items.len());
    for item in items {
        item.encode(enc);
    }
}

fn decode_vec<T: Persist>(dec: &mut Decoder<'_>) -> PersistResult<Vec<T>> {
    let n = dec.take_len()?;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(T::decode(dec)?);
    }
    Ok(out)
}

fn encode_f64s(items: &[f64], enc: &mut Encoder) {
    enc.put_len(items.len());
    for &x in items {
        enc.put_f64(x);
    }
}

fn decode_f64s(dec: &mut Decoder<'_>) -> PersistResult<Vec<f64>> {
    let n = dec.take_len()?;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(dec.take_f64()?);
    }
    Ok(out)
}

impl Persist for AggKey {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            AggKey::Avg(expr) => {
                enc.put_u8(0);
                enc.put_str(expr);
            }
            AggKey::Freq => enc.put_u8(1),
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> PersistResult<AggKey> {
        match dec.take_u8()? {
            0 => Ok(AggKey::Avg(dec.take_str()?)),
            1 => Ok(AggKey::Freq),
            t => Err(PersistError::Corrupt(format!("AggKey tag {t}"))),
        }
    }
}

impl Persist for Observation {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(self.answer);
        enc.put_f64(self.error);
    }

    fn decode(dec: &mut Decoder<'_>) -> PersistResult<Observation> {
        Ok(Observation {
            answer: dec.take_f64()?,
            error: dec.take_f64()?,
        })
    }
}

/// A cell value exactly as the caller supplied it — tag 0 = `Num` (f64
/// bits), 1 = `Cat` (u32 code), 2 = `Str` — so a decoded `Str` rebuilds
/// a table dictionary deterministically and `Num`/`Cat` keep their bits.
/// The WAL's ingest rows and the wire's parameters, rows and group keys
/// all use this one form.
impl Persist for Value {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Value::Num(x) => {
                enc.put_u8(0);
                enc.put_f64(*x);
            }
            Value::Cat(c) => {
                enc.put_u8(1);
                enc.put_u32(*c);
            }
            Value::Str(s) => {
                enc.put_u8(2);
                enc.put_str(s);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> PersistResult<Value> {
        Ok(match dec.take_u8()? {
            0 => Value::Num(dec.take_f64()?),
            1 => Value::Cat(dec.take_u32()?),
            2 => Value::Str(dec.take_str()?),
            t => return Err(PersistError::Corrupt(format!("Value tag {t}"))),
        })
    }
}

/// A sequence: its length, then each item.
impl<T: Persist> Persist for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        encode_vec(self, enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> PersistResult<Vec<T>> {
        decode_vec(dec)
    }
}

impl Persist for crate::append::AppendAdjustment {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(self.mu_shift);
        enc.put_f64(self.eta);
        enc.put_u64(self.old_rows as u64);
        enc.put_u64(self.appended_rows as u64);
    }

    fn decode(dec: &mut Decoder<'_>) -> PersistResult<crate::append::AppendAdjustment> {
        Ok(crate::append::AppendAdjustment {
            mu_shift: dec.take_f64()?,
            eta: dec.take_f64()?,
            old_rows: dec.take_u64()? as usize,
            appended_rows: dec.take_u64()? as usize,
        })
    }
}

impl Persist for DimConstraint {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            DimConstraint::Range { lo, hi } => {
                enc.put_u8(0);
                enc.put_f64(*lo);
                enc.put_f64(*hi);
            }
            DimConstraint::Set(None) => enc.put_u8(1),
            DimConstraint::Set(Some(codes)) => {
                enc.put_u8(2);
                enc.put_len(codes.len());
                for &c in codes {
                    enc.put_u32(c);
                }
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> PersistResult<DimConstraint> {
        match dec.take_u8()? {
            0 => Ok(DimConstraint::Range {
                lo: dec.take_f64()?,
                hi: dec.take_f64()?,
            }),
            1 => Ok(DimConstraint::Set(None)),
            2 => {
                let n = dec.take_len()?;
                let mut codes = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    codes.push(dec.take_u32()?);
                }
                Ok(DimConstraint::Set(Some(codes)))
            }
            t => Err(PersistError::Corrupt(format!("DimConstraint tag {t}"))),
        }
    }
}

impl Persist for Region {
    fn encode(&self, enc: &mut Encoder) {
        encode_vec(self.constraints(), enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> PersistResult<Region> {
        Ok(Region::from_constraints(decode_vec(dec)?))
    }
}

impl Persist for DimensionSpec {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.name);
        match self.kind {
            DimKind::Numeric { lo, hi } => {
                enc.put_u8(0);
                enc.put_f64(lo);
                enc.put_f64(hi);
            }
            DimKind::Categorical { cardinality } => {
                enc.put_u8(1);
                enc.put_u32(cardinality);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> PersistResult<DimensionSpec> {
        let name = dec.take_str()?;
        let kind = match dec.take_u8()? {
            0 => DimKind::Numeric {
                lo: dec.take_f64()?,
                hi: dec.take_f64()?,
            },
            1 => DimKind::Categorical {
                cardinality: dec.take_u32()?,
            },
            t => return Err(PersistError::Corrupt(format!("DimKind tag {t}"))),
        };
        Ok(DimensionSpec { name, kind })
    }
}

impl Persist for SchemaInfo {
    fn encode(&self, enc: &mut Encoder) {
        encode_vec(self.dims(), enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> PersistResult<SchemaInfo> {
        SchemaInfo::new(decode_vec(dec)?).map_err(|e| PersistError::Corrupt(format!("schema: {e}")))
    }
}

impl Persist for SynopsisEntry {
    fn encode(&self, enc: &mut Encoder) {
        self.region.encode(enc);
        self.observation.encode(enc);
        enc.put_u64(self.stamp());
    }

    fn decode(dec: &mut Decoder<'_>) -> PersistResult<SynopsisEntry> {
        let region = Region::decode(dec)?;
        let observation = Observation::decode(dec)?;
        let stamp = dec.take_u64()?;
        Ok(SynopsisEntry::from_parts(region, observation, stamp))
    }
}

impl Persist for QuerySynopsis {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_len(self.capacity());
        enc.put_u64(self.clock());
        encode_vec(self.entries(), enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> PersistResult<QuerySynopsis> {
        let capacity = dec.take_count()?;
        let clock = dec.take_u64()?;
        let entries = decode_vec(dec)?;
        Ok(QuerySynopsis::from_parts(capacity, clock, entries))
    }
}

impl Persist for KernelParams {
    fn encode(&self, enc: &mut Encoder) {
        encode_f64s(&self.lengthscales, enc);
        enc.put_f64(self.sigma2);
    }

    /// A lengthscale or a `σ²` that is not finite and positive is
    /// [`PersistError::Corrupt`]: training never writes one (it floors
    /// `σ²` at `1e-300`), and no kernel has one.
    fn decode(dec: &mut Decoder<'_>) -> PersistResult<KernelParams> {
        let params = KernelParams {
            lengthscales: decode_f64s(dec)?,
            sigma2: dec.take_f64()?,
        };
        let usable = |v: &f64| v.is_finite() && *v > 0.0;
        if !params.lengthscales.iter().all(usable) || !usable(&params.sigma2) {
            return Err(PersistError::Corrupt(format!(
                "kernel parameters {params:?}"
            )));
        }
        Ok(params)
    }
}

impl Persist for PriorMean {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            PriorMean::Constant(mu) => {
                enc.put_u8(0);
                enc.put_f64(*mu);
            }
            PriorMean::Density(rho) => {
                enc.put_u8(1);
                enc.put_f64(*rho);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> PersistResult<PriorMean> {
        match dec.take_u8()? {
            0 => Ok(PriorMean::Constant(dec.take_f64()?)),
            1 => Ok(PriorMean::Density(dec.take_f64()?)),
            t => Err(PersistError::Corrupt(format!("PriorMean tag {t}"))),
        }
    }
}

impl Persist for AggMode {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(match self {
            AggMode::Avg => 0,
            AggMode::Freq => 1,
        });
    }

    fn decode(dec: &mut Decoder<'_>) -> PersistResult<AggMode> {
        match dec.take_u8()? {
            0 => Ok(AggMode::Avg),
            1 => Ok(AggMode::Freq),
            t => Err(PersistError::Corrupt(format!("AggMode tag {t}"))),
        }
    }
}

impl Persist for TrainedModel {
    fn encode(&self, enc: &mut Encoder) {
        self.mode().encode(enc);
        self.params().encode(enc);
        self.prior().encode(enc);
        encode_vec(self.regions(), enc);
        encode_vec(self.observations(), enc);
        encode_f64s(self.factor().packed(), enc);
        encode_f64s(self.alpha(), enc);
    }

    /// The factor is input from outside the program: a length that is
    /// not `n(n+1)/2`, a non-finite entry or a non-positive diagonal is
    /// [`PersistError::Corrupt`], and so is a region with other than one
    /// constraint per lengthscale. (Whether the dimensions are the
    /// engine's is [`crate::Verdict::restore_state`]'s check.)
    fn decode(dec: &mut Decoder<'_>) -> PersistResult<TrainedModel> {
        let mode = AggMode::decode(dec)?;
        let params = KernelParams::decode(dec)?;
        let prior = PriorMean::decode(dec)?;
        let regions: Vec<Region> = decode_vec(dec)?;
        let observations: Vec<Observation> = decode_vec(dec)?;
        let n = regions.len();
        let corrupt = |what: String| PersistError::Corrupt(format!("model of {n} regions: {what}"));
        if observations.len() != n {
            return Err(corrupt(format!("{} observations", observations.len())));
        }
        let dims = params.lengthscales.len();
        if let Some(r) = regions.iter().find(|r| r.constraints().len() != dims) {
            return Err(corrupt(format!(
                "a region of {} constraints under {dims} lengthscales",
                r.constraints().len()
            )));
        }
        let factor = Cholesky::from_packed(decode_f64s(dec)?)
            .map_err(|e| corrupt(format!("factor: {e}")))?;
        let alpha = decode_f64s(dec)?;
        if alpha.len() != n || factor.dim() != n {
            return Err(corrupt(format!(
                "{} α, factor of {}",
                alpha.len(),
                factor.dim()
            )));
        }
        Ok(TrainedModel::from_parts(
            mode,
            params,
            prior,
            regions,
            observations,
            factor,
            alpha,
        ))
    }
}

impl Persist for EngineStats {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.improved);
        enc.put_u64(self.rejected);
        enc.put_u64(self.passed_through);
        enc.put_u64(self.observed);
    }

    fn decode(dec: &mut Decoder<'_>) -> PersistResult<EngineStats> {
        Ok(EngineStats {
            improved: dec.take_u64()?,
            rejected: dec.take_u64()?,
            passed_through: dec.take_u64()?,
            observed: dec.take_u64()?,
        })
    }
}

impl Persist for VerdictConfig {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_len(self.nmax);
        enc.put_len(self.synopsis_capacity);
        enc.put_f64(self.validation_delta);
        enc.put_bool(self.enable_validation);
        enc.put_f64(self.confidence_delta);
        enc.put_f64(self.jitter);
        enc.put_len(self.min_snippets_to_train);
        encode_f64s(&self.lengthscale_starts, enc);
        enc.put_len(self.max_optimizer_iters);
        enc.put_len(self.max_training_snippets);
    }

    fn decode(dec: &mut Decoder<'_>) -> PersistResult<VerdictConfig> {
        Ok(VerdictConfig {
            nmax: dec.take_count()?,
            synopsis_capacity: dec.take_count()?,
            validation_delta: dec.take_f64()?,
            enable_validation: dec.take_bool()?,
            confidence_delta: dec.take_f64()?,
            jitter: dec.take_f64()?,
            min_snippets_to_train: dec.take_count()?,
            lengthscale_starts: decode_f64s(dec)?,
            max_optimizer_iters: dec.take_count()?,
            max_training_snippets: dec.take_count()?,
        })
    }
}

/// The complete learned state of a [`crate::Verdict`] engine, in a
/// deterministic (key-sorted) order so identical engines encode to
/// identical bytes.
#[derive(Debug, Clone)]
pub struct EngineState {
    /// The dimension universe the state was learned over.
    pub schema: SchemaInfo,
    /// Per-aggregate synopses, sorted by key.
    pub synopses: Vec<(AggKey, QuerySynopsis)>,
    /// Per-aggregate trained models, sorted by key.
    pub models: Vec<(AggKey, TrainedModel)>,
    /// Engine counters.
    pub stats: EngineStats,
}

impl Persist for EngineState {
    fn encode(&self, enc: &mut Encoder) {
        self.schema.encode(enc);
        enc.put_len(self.synopses.len());
        for (key, synopsis) in &self.synopses {
            key.encode(enc);
            synopsis.encode(enc);
        }
        enc.put_len(self.models.len());
        for (key, model) in &self.models {
            key.encode(enc);
            model.encode(enc);
        }
        self.stats.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> PersistResult<EngineState> {
        let schema = SchemaInfo::decode(dec)?;
        let n = dec.take_len()?;
        let mut synopses = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            synopses.push((AggKey::decode(dec)?, QuerySynopsis::decode(dec)?));
        }
        let n = dec.take_len()?;
        let mut models = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            models.push((AggKey::decode(dec)?, TrainedModel::decode(dec)?));
        }
        let stats = EngineStats::decode(dec)?;
        Ok(EngineState {
            schema,
            synopses,
            models,
            stats,
        })
    }
}

/// 64-bit FNV-1a over raw bytes — the single fingerprint algorithm every
/// store-side binding (schema, plan) must agree on.
pub fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// 64-bit FNV-1a fingerprint of a value's encoding; the store uses it to
/// refuse opening state against a different schema.
pub fn fingerprint<T: Persist>(value: &T) -> u64 {
    fingerprint_bytes(&value.to_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use verdict_storage::Predicate;

    fn schema() -> SchemaInfo {
        SchemaInfo::new(vec![
            DimensionSpec::numeric("t", 0.0, 100.0),
            DimensionSpec::categorical("c", 5),
        ])
        .unwrap()
    }

    fn region(lo: f64, hi: f64) -> Region {
        Region::from_predicate(&schema(), &Predicate::between("t", lo, hi)).unwrap()
    }

    fn roundtrip<T: Persist>(v: &T) -> T {
        T::from_bytes(&v.to_bytes()).expect("roundtrip decodes")
    }

    #[test]
    fn primitives_roundtrip() {
        let mut enc = Encoder::new();
        enc.put_u8(7);
        enc.put_u32(0xDEAD_BEEF);
        enc.put_u64(u64::MAX);
        enc.put_f64(-0.0);
        enc.put_f64(f64::NAN);
        enc.put_bool(true);
        enc.put_str("snippet κ̄");
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.take_u8().unwrap(), 7);
        assert_eq!(dec.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.take_u64().unwrap(), u64::MAX);
        assert_eq!(dec.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(dec.take_f64().unwrap().is_nan());
        assert!(dec.take_bool().unwrap());
        assert_eq!(dec.take_str().unwrap(), "snippet κ̄");
        assert!(dec.is_exhausted());
    }

    #[test]
    fn truncated_buffers_error_not_panic() {
        let key = AggKey::avg("revenue");
        let bytes = key.to_bytes();
        for cut in 0..bytes.len() {
            let mut dec = Decoder::new(&bytes[..cut]);
            assert!(AggKey::decode(&mut dec).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn agg_key_and_observation_roundtrip() {
        for key in [AggKey::avg("rev"), AggKey::avg(""), AggKey::Freq] {
            assert_eq!(roundtrip(&key), key);
        }
        let obs = Observation::new(1.5, f64::INFINITY);
        let back = roundtrip(&obs);
        assert_eq!(back.answer.to_bits(), obs.answer.to_bits());
        assert_eq!(back.error.to_bits(), obs.error.to_bits());
    }

    #[test]
    fn region_roundtrips_all_constraints() {
        let s = schema();
        let cases = [
            Region::full(&s),
            Region::from_predicate(
                &s,
                &Predicate::between("t", 3.25, 77.5).and(Predicate::cat_in("c", vec![0, 3])),
            )
            .unwrap(),
            Region::from_predicate(&s, &Predicate::cat_in("c", vec![])).unwrap(),
        ];
        for r in cases {
            assert_eq!(roundtrip(&r), r);
        }
    }

    #[test]
    fn schema_roundtrip_and_fingerprint() {
        let s = schema();
        assert_eq!(roundtrip(&s), s);
        let other = SchemaInfo::new(vec![DimensionSpec::numeric("t", 0.0, 99.0)]).unwrap();
        assert_ne!(fingerprint(&s), fingerprint(&other));
        assert_eq!(fingerprint(&s), fingerprint(&schema()));
    }

    #[test]
    fn synopsis_roundtrip_preserves_lru_state() {
        let mut syn = QuerySynopsis::new(3);
        syn.record(region(0.0, 10.0), Observation::new(1.0, 0.5));
        syn.record(region(10.0, 20.0), Observation::new(2.0, 0.4));
        syn.record(region(0.0, 10.0), Observation::new(1.1, 0.3));
        let back = roundtrip(&syn);
        assert_eq!(back.to_bytes(), syn.to_bytes());
        // LRU behaviour must continue identically: the next insert at
        // capacity evicts the same victim in both copies.
        let mut a = syn.clone();
        let mut b = back;
        a.record(region(20.0, 30.0), Observation::new(3.0, 0.2));
        b.record(region(20.0, 30.0), Observation::new(3.0, 0.2));
        a.record(region(30.0, 40.0), Observation::new(4.0, 0.2));
        b.record(region(30.0, 40.0), Observation::new(4.0, 0.2));
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn trained_model_roundtrip_infers_identically() {
        let s = SchemaInfo::new(vec![DimensionSpec::numeric("t", 0.0, 100.0)]).unwrap();
        let entries: Vec<(Region, Observation)> = (0..8)
            .map(|i| {
                let lo = i as f64 * 12.0;
                (
                    Region::from_predicate(&s, &Predicate::between("t", lo, lo + 12.0)).unwrap(),
                    Observation::new(10.0 + (lo / 20.0).sin(), 0.2),
                )
            })
            .collect();
        let model = TrainedModel::fit(
            &s,
            AggMode::Avg,
            &entries,
            KernelParams::constant(1, 25.0, 2.0),
            PriorMean::Constant(10.0),
            1e-9,
        )
        .unwrap();
        let back = roundtrip(&model);
        let q = Region::from_predicate(&s, &Predicate::between("t", 30.0, 50.0)).unwrap();
        let raw = Observation::new(10.4, 0.6);
        let a = model.infer(&s, &q, raw);
        let b = back.infer(&s, &q, raw);
        assert_eq!(a.model_answer.to_bits(), b.model_answer.to_bits());
        assert_eq!(a.model_error.to_bits(), b.model_error.to_bits());
    }

    fn fitted_model() -> (SchemaInfo, TrainedModel) {
        let s = SchemaInfo::new(vec![DimensionSpec::numeric("t", 0.0, 100.0)]).unwrap();
        let entries: Vec<(Region, Observation)> = (0..6)
            .map(|i| {
                let lo = i as f64 * 15.0;
                (
                    Region::from_predicate(&s, &Predicate::between("t", lo, lo + 20.0)).unwrap(),
                    Observation::new(3.0 + (lo / 25.0).cos(), 0.1),
                )
            })
            .collect();
        let params = KernelParams::constant(1, 25.0, 2.0);
        let model = TrainedModel::fit(
            &s,
            AggMode::Avg,
            &entries,
            params,
            PriorMean::Constant(3.0),
            1e-9,
        );
        (s, model.unwrap())
    }

    #[test]
    fn corrupt_factors_are_rejected() {
        let (_, model) = fitted_model();
        let n = model.n();
        let good = model.to_bytes();
        // The packed factor's length prefix sits right before its entries,
        // which are followed by α (a length and n values).
        let factor_at = good.len() - 8 * (1 + n) - 8 * (n * (n + 1) / 2);
        let corrupt = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = good.clone();
            edit(&mut bytes);
            TrainedModel::from_bytes(&bytes)
        };
        let set = |at: usize, v: f64| {
            move |b: &mut Vec<u8>| b[at..at + 8].copy_from_slice(&v.to_le_bytes())
        };
        for v in [0.0, -1.0, f64::NAN] {
            // L[0][0], the first entry.
            assert!(
                matches!(corrupt(&set(factor_at, v)), Err(PersistError::Corrupt(_))),
                "{v}"
            );
        }
        // L[1][0] = ∞.
        assert!(matches!(
            corrupt(&set(factor_at + 8, f64::INFINITY)),
            Err(PersistError::Corrupt(_))
        ));
        // One entry fewer: no triangle number, and α now starts a word early.
        let shorter = |b: &mut Vec<u8>| {
            let len = (n * (n + 1) / 2 - 1) as u64;
            b[factor_at - 8..factor_at].copy_from_slice(&len.to_le_bytes());
            b.drain(factor_at..factor_at + 8);
        };
        assert!(corrupt(&shorter).is_err());
        assert!(TrainedModel::from_bytes(&good).is_ok());
    }

    #[test]
    fn extreme_counters_roundtrip() {
        // Counters with no trailing data must accept any value — a store
        // with `synopsis_capacity: usize::MAX` (eviction disabled) must
        // stay reopenable.
        let cfg = VerdictConfig {
            nmax: usize::MAX,
            synopsis_capacity: usize::MAX,
            max_training_snippets: 2_000_000,
            ..Default::default()
        };
        let back = roundtrip(&cfg);
        assert_eq!(back.to_bytes(), cfg.to_bytes());
        let syn = QuerySynopsis::new(usize::MAX);
        let back = roundtrip(&syn);
        assert_eq!(back.capacity(), usize::MAX);
    }

    #[test]
    fn config_roundtrip() {
        let cfg = VerdictConfig {
            lengthscale_starts: vec![1.0, 0.25],
            enable_validation: false,
            ..Default::default()
        };
        let back = roundtrip(&cfg);
        assert_eq!(back.to_bytes(), cfg.to_bytes());
    }

    #[test]
    fn corrupt_tags_rejected() {
        let mut enc = Encoder::new();
        enc.put_u8(9);
        let bytes = enc.into_bytes();
        assert!(AggKey::from_bytes(&bytes).is_err());
        assert!(PriorMean::from_bytes(&bytes).is_err());
        assert!(AggMode::from_bytes(&bytes).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = AggKey::Freq.to_bytes();
        bytes.push(0);
        assert!(AggKey::from_bytes(&bytes).is_err());
    }
}
