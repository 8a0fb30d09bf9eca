//! `SOTERIA-STATE v3`: a zero-copy binary model artifact.
//!
//! The v2 text envelope (see [`crate::persist`]) serializes every weight
//! as JSON, so loading a model re-parses and re-allocates each tensor.
//! The v3 artifact instead lays tensors out as raw, 64-byte-aligned blobs
//! inside one contiguous buffer; loading reads the file once into an
//! aligned allocation and *borrows* every weight matrix straight out of
//! it ([`soteria_nn::TensorView`] / [`soteria_nn::WeightStore::Shared`]).
//! No tensor is ever parsed or copied — cold start is bounded by the read
//! itself.
//!
//! # Layout
//!
//! All integers are native-endian; the header's endian tag detects a
//! foreign-endian file. Offsets are absolute file offsets.
//!
//! ```text
//! header (64 bytes)
//!   0..16   magic "SOTERIA-STATE v3"
//!   16..20  endian tag u32 = 0x1A2B3C4D
//!   20..24  format version u32 = 3
//!   24..28  section count u32
//!   28..32  reserved (zero)
//!   32..40  section table offset u64 (= 64)
//!   40..48  total file length u64
//!   48..52  CRC-32 of the section table
//!   52..56  CRC-32 of header bytes 0..52
//!   56..64  reserved (zero)
//! section table (32 bytes per entry, at offset 64)
//!   0..4    kind u32      (0 = META JSON, 1 = tensor blob)
//!   4..8    element u32   (0 = bytes, 1 = f32, 3 = f64, 4 = u64,
//!                          5 = u8; 2 is reserved: older artifacts
//!                          stored i8 tensors under it)
//!   8..16   payload offset u64 (64-byte aligned)
//!   16..24  payload byte length u64
//!   24..28  CRC-32 of the payload
//!   28..32  section id u32 (= table index)
//! sections (each padded to the next 64-byte boundary)
//! ```
//!
//! Section 0 is the META JSON: configuration, threshold statistics, layer
//! descriptors, and vocabulary descriptors, each referring to tensor
//! sections by id. Everything large (weights, biases, vocabulary
//! gram/IDF tables) lives in tensor sections.
//!
//! # Integrity
//!
//! Every byte that influences a verdict is covered by exactly one CRC:
//! the header CRC covers the header fields (including the table CRC), the
//! table CRC covers every section entry, and each entry's CRC covers its
//! payload. Only inter-section padding and the reserved header bytes are
//! uncovered — flipping those cannot change behavior. Corruption is
//! always diagnosed as a typed [`StateError`], never a panic or a wrong
//! verdict.

use crate::persist::{SoteriaState, StateError};
use crate::pipeline::Soteria;
use serde::{Deserialize, Serialize};
use soteria_features::{ExtractorConfig, FeatureExtractor, Gram, Vocabulary};
use soteria_nn::persist::{LayerSpec, ModelSpec};
use soteria_nn::{
    Activation, Conv1d, Conv2d, Dense, Dropout, Matrix, MaxPool1d, MaxPool2d, Scalar, TensorView,
    WeightStore,
};
use std::path::Path;
use std::sync::Arc;

/// The 16-byte magic that opens every v3 artifact.
pub const ARTIFACT_MAGIC: &[u8; 16] = b"SOTERIA-STATE v3";
/// Endianness canary stored at offset 16.
pub const ENDIAN_TAG: u32 = 0x1A2B_3C4D;
/// The artifact format version this build reads and writes.
pub const ARTIFACT_VERSION: u32 = 3;
/// Header size in bytes.
pub const HEADER_LEN: usize = 64;
/// Section-table entry size in bytes.
pub const ENTRY_LEN: usize = 32;
/// Alignment of every section payload (matches
/// [`soteria_nn::BUFFER_ALIGN`], so views of any scalar type are aligned).
pub const SECTION_ALIGN: usize = 64;

/// Section kind: the META JSON document.
pub const KIND_META: u32 = 0;
/// Section kind: a raw tensor blob.
pub const KIND_TENSOR: u32 = 1;

const ELEM_BYTES: u32 = 0;
const ELEM_F32: u32 = 1;
// Element code 2 is reserved: older artifacts stored i8 tensors under it.
const ELEM_F64: u32 = 3;
const ELEM_U64: u32 = 4;
const ELEM_U8: u32 = 5;

/// Element code for a [`Scalar`] type, matching the on-disk `element`
/// field.
fn elem_code<T: Scalar>() -> u32 {
    match T::NAME {
        "f32" => ELEM_F32,
        "f64" => ELEM_F64,
        "u64" => ELEM_U64,
        "u8" => ELEM_U8,
        other => unreachable!("unmapped scalar type {other}"),
    }
}

fn align_up(n: usize, align: usize) -> usize {
    n.div_ceil(align) * align
}

/// One validated section-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    /// Section kind ([`KIND_META`] or [`KIND_TENSOR`]).
    pub kind: u32,
    /// Element code (0 = bytes, 1 = f32, 3 = f64, 4 = u64, 5 = u8; 2 is
    /// reserved).
    pub elem: u32,
    /// Absolute payload offset (64-byte aligned).
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// CRC-32 of the payload.
    pub crc: u32,
    /// Section id (equals the table index).
    pub id: u32,
}

// ---------------------------------------------------------------------------
// META document
// ---------------------------------------------------------------------------

/// A fitted vocabulary, by reference into tensor sections: packed gram
/// bits (u64), gram lengths (u8), and IDF weights (f64), all parallel.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct VocabDesc {
    packed: u32,
    lens: u32,
    idf: u32,
}

/// One f32 layer, shapes inline and tensors by section id.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum LayerDesc {
    Dense {
        activation: Activation,
        rows: usize,
        cols: usize,
        w: u32,
        b: u32,
    },
    Conv1d {
        in_c: usize,
        out_c: usize,
        kernel: usize,
        length: usize,
        relu: bool,
        w: u32,
        b: u32,
    },
    Conv2d {
        in_c: usize,
        out_c: usize,
        kernel: usize,
        height: usize,
        width: usize,
        relu: bool,
        w: u32,
        b: u32,
    },
    MaxPool1d {
        channels: usize,
        length: usize,
        window: usize,
    },
    MaxPool2d {
        channels: usize,
        height: usize,
        width: usize,
        window: usize,
    },
    Dropout {
        p: f64,
        seed: u64,
        draws: u64,
    },
}

/// The artifact's section-0 JSON document: everything a
/// [`SoteriaState`] holds except the tensors themselves.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ArtifactMeta {
    config: crate::config::SoteriaConfig,
    extractor_config: ExtractorConfig,
    detector_stats: crate::detector::ThresholdStats,
    dbl_vocab: VocabDesc,
    lbl_vocab: VocabDesc,
    detector: Vec<LayerDesc>,
    dbl_cnn: Vec<LayerDesc>,
    lbl_cnn: Vec<LayerDesc>,
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Accumulates tensor sections during writing; ids start at 1 (section 0
/// is the META document).
struct TensorSink {
    /// `(element code, payload bytes)` per tensor section, in id order.
    sections: Vec<(u32, Vec<u8>)>,
}

impl TensorSink {
    fn new() -> Self {
        TensorSink {
            sections: Vec::new(),
        }
    }

    fn push_bytes(&mut self, elem: u32, bytes: Vec<u8>) -> u32 {
        self.sections.push((elem, bytes));
        self.sections.len() as u32
    }

    fn push_f32(&mut self, data: &[f32]) -> u32 {
        let mut bytes = Vec::with_capacity(data.len() * 4);
        for &v in data {
            bytes.extend_from_slice(&v.to_ne_bytes());
        }
        self.push_bytes(ELEM_F32, bytes)
    }

    fn push_f64(&mut self, data: &[f64]) -> u32 {
        let mut bytes = Vec::with_capacity(data.len() * 8);
        for &v in data {
            bytes.extend_from_slice(&v.to_ne_bytes());
        }
        self.push_bytes(ELEM_F64, bytes)
    }

    fn push_u64(&mut self, data: &[u64]) -> u32 {
        let mut bytes = Vec::with_capacity(data.len() * 8);
        for &v in data {
            bytes.extend_from_slice(&v.to_ne_bytes());
        }
        self.push_bytes(ELEM_U64, bytes)
    }

    fn push_u8(&mut self, data: &[u8]) -> u32 {
        self.push_bytes(ELEM_U8, data.to_vec())
    }
}

fn vocab_desc(vocab: &Vocabulary, sink: &mut TensorSink) -> VocabDesc {
    let packed: Vec<u64> = vocab.grams().iter().map(|g| g.packed()).collect();
    let lens: Vec<u8> = vocab.grams().iter().map(|g| g.len() as u8).collect();
    VocabDesc {
        packed: sink.push_u64(&packed),
        lens: sink.push_u8(&lens),
        idf: sink.push_f64(vocab.idf_weights()),
    }
}

fn model_desc(spec: &ModelSpec, sink: &mut TensorSink) -> Result<Vec<LayerDesc>, StateError> {
    spec.layers()
        .iter()
        .enumerate()
        .map(|(i, layer)| match layer {
            LayerSpec::Dense(d) => Ok(LayerDesc::Dense {
                activation: d.activation(),
                rows: d.weights().rows(),
                cols: d.weights().cols(),
                w: sink.push_f32(d.weights().data()),
                b: sink.push_f32(d.bias()),
            }),
            LayerSpec::Conv1d(c) => Ok(LayerDesc::Conv1d {
                in_c: c.in_channels(),
                out_c: c.out_channels(),
                kernel: c.kernel(),
                length: c.length(),
                relu: c.relu(),
                w: sink.push_f32(c.weights()),
                b: sink.push_f32(c.bias()),
            }),
            LayerSpec::Conv2d(c) => Ok(LayerDesc::Conv2d {
                in_c: c.in_channels(),
                out_c: c.out_channels(),
                kernel: c.kernel(),
                height: c.height(),
                width: c.width(),
                relu: c.relu(),
                w: sink.push_f32(c.weights()),
                b: sink.push_f32(c.bias()),
            }),
            LayerSpec::MaxPool1d(p) => Ok(LayerDesc::MaxPool1d {
                channels: p.channels(),
                length: p.length(),
                window: p.window(),
            }),
            LayerSpec::MaxPool2d(p) => Ok(LayerDesc::MaxPool2d {
                channels: p.channels(),
                height: p.height(),
                width: p.width(),
                window: p.window(),
            }),
            LayerSpec::Dropout(d) => Ok(LayerDesc::Dropout {
                p: d.probability(),
                seed: d.seed(),
                draws: d.draws(),
            }),
            _ => Err(StateError::Parse(format!(
                "layer {i} has a type the v3 artifact does not describe"
            ))),
        })
        .collect()
}

/// Serializes a state into v3 artifact bytes.
pub(crate) fn write_artifact(state: &SoteriaState) -> Result<Vec<u8>, StateError> {
    let mut sink = TensorSink::new();
    let meta = ArtifactMeta {
        config: state.config.clone(),
        extractor_config: state.extractor.config().clone(),
        detector_stats: state.detector_stats,
        dbl_vocab: vocab_desc(state.extractor.dbl_vocabulary(), &mut sink),
        lbl_vocab: vocab_desc(state.extractor.lbl_vocabulary(), &mut sink),
        detector: model_desc(&state.detector_model, &mut sink)?,
        dbl_cnn: model_desc(&state.dbl_cnn, &mut sink)?,
        lbl_cnn: model_desc(&state.lbl_cnn, &mut sink)?,
    };
    let meta_json = serde_json::to_string(&meta).map_err(|e| StateError::Parse(e.to_string()))?;

    // Section 0 is META; tensor sections follow in id order.
    let mut payloads: Vec<(u32, u32, Vec<u8>)> = Vec::with_capacity(1 + sink.sections.len());
    payloads.push((KIND_META, ELEM_BYTES, meta_json.into_bytes()));
    for (elem, bytes) in sink.sections {
        payloads.push((KIND_TENSOR, elem, bytes));
    }

    let count = payloads.len();
    let table_end = HEADER_LEN + count * ENTRY_LEN;
    let mut offsets = Vec::with_capacity(count);
    let mut cursor = align_up(table_end, SECTION_ALIGN);
    for (_, _, bytes) in &payloads {
        offsets.push(cursor);
        cursor += bytes.len();
        cursor = align_up(cursor, SECTION_ALIGN);
    }
    // The file ends exactly where the last payload does (no trailing pad).
    let total = offsets
        .last()
        .map(|&o| o + payloads[count - 1].2.len())
        .unwrap_or(table_end);

    let mut out = vec![0u8; total];
    // Payloads + table entries.
    for (i, ((kind, elem, bytes), &offset)) in payloads.iter().zip(&offsets).enumerate() {
        out[offset..offset + bytes.len()].copy_from_slice(bytes);
        let crc = soteria_resilience::crc32(bytes);
        let entry = &mut out[HEADER_LEN + i * ENTRY_LEN..HEADER_LEN + (i + 1) * ENTRY_LEN];
        entry[0..4].copy_from_slice(&kind.to_ne_bytes());
        entry[4..8].copy_from_slice(&elem.to_ne_bytes());
        entry[8..16].copy_from_slice(&(offset as u64).to_ne_bytes());
        entry[16..24].copy_from_slice(&(bytes.len() as u64).to_ne_bytes());
        entry[24..28].copy_from_slice(&crc.to_ne_bytes());
        entry[28..32].copy_from_slice(&(i as u32).to_ne_bytes());
    }
    let table_crc = soteria_resilience::crc32(&out[HEADER_LEN..table_end]);
    // Header.
    out[0..16].copy_from_slice(ARTIFACT_MAGIC);
    out[16..20].copy_from_slice(&ENDIAN_TAG.to_ne_bytes());
    out[20..24].copy_from_slice(&ARTIFACT_VERSION.to_ne_bytes());
    out[24..28].copy_from_slice(&(count as u32).to_ne_bytes());
    out[32..40].copy_from_slice(&(HEADER_LEN as u64).to_ne_bytes());
    out[40..48].copy_from_slice(&(total as u64).to_ne_bytes());
    out[48..52].copy_from_slice(&table_crc.to_ne_bytes());
    let header_crc = soteria_resilience::crc32(&out[0..52]);
    out[52..56].copy_from_slice(&header_crc.to_ne_bytes());
    Ok(out)
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_ne_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_ne_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// A validated, loaded v3 artifact: the raw aligned buffer plus the
/// parsed META document and section table.
///
/// Opening validates every checksum once; [`StateImage::to_state`] then
/// builds a [`SoteriaState`] whose weight tensors *borrow* this buffer —
/// cloning the image or the state bumps an `Arc`, it never copies a
/// tensor.
#[derive(Debug, Clone)]
pub struct StateImage {
    buf: Arc<soteria_nn::AlignedBytes>,
    sections: Vec<SectionEntry>,
    meta: ArtifactMeta,
}

impl StateImage {
    /// Reads and validates an artifact file.
    ///
    /// # Errors
    ///
    /// [`StateError::Io`] on filesystem failure; otherwise the typed
    /// [`StateError`] diagnosing the malformed structure.
    pub fn open(path: &Path) -> Result<Self, StateError> {
        let buf = soteria_nn::AlignedBytes::read_file(path)
            .map_err(|e| StateError::Io(format!("{}: {e}", path.display())))?;
        Self::from_buffer(buf)
    }

    /// Validates an in-memory artifact (the bytes are copied once into an
    /// aligned buffer — the corruption batteries use this to avoid disk
    /// round trips).
    ///
    /// # Errors
    ///
    /// The typed [`StateError`] diagnosing the malformed structure.
    pub fn parse(bytes: &[u8]) -> Result<Self, StateError> {
        Self::from_buffer(soteria_nn::AlignedBytes::copy_from(bytes))
    }

    fn from_buffer(buf: soteria_nn::AlignedBytes) -> Result<Self, StateError> {
        let bytes = buf.as_slice();
        if bytes.len() < HEADER_LEN {
            return Err(StateError::Truncated {
                expected: HEADER_LEN as u64,
                actual: bytes.len() as u64,
                what: "artifact header".to_string(),
            });
        }
        if &bytes[0..16] != ARTIFACT_MAGIC {
            return Err(StateError::bad_header(
                "expected SOTERIA-STATE v3 magic",
                0,
                bytes,
            ));
        }
        let tag = read_u32(bytes, 16);
        if tag != ENDIAN_TAG {
            let why = if tag == ENDIAN_TAG.swap_bytes() {
                "artifact was written on a machine of opposite endianness"
            } else {
                "bad endianness tag"
            };
            return Err(StateError::bad_header(why, 16, &bytes[16..]));
        }
        let version = read_u32(bytes, 20);
        if version > ARTIFACT_VERSION {
            return Err(StateError::UnsupportedVersion {
                found: version,
                supported: ARTIFACT_VERSION,
            });
        }
        if version < ARTIFACT_VERSION {
            return Err(StateError::bad_header(
                format!("v3 magic but version field says {version}"),
                20,
                &bytes[20..],
            ));
        }
        let expected = read_u32(bytes, 52);
        let actual = soteria_resilience::crc32(&bytes[0..52]);
        if expected != actual {
            return Err(StateError::ChecksumMismatch { expected, actual });
        }
        let count = read_u32(bytes, 24) as u64;
        let table_offset = read_u64(bytes, 32);
        if table_offset != HEADER_LEN as u64 {
            return Err(StateError::bad_header(
                format!("section table must start at {HEADER_LEN}, header says {table_offset}"),
                32,
                &bytes[32..],
            ));
        }
        let declared = read_u64(bytes, 40);
        let have = bytes.len() as u64;
        if declared > have {
            return Err(StateError::Truncated {
                expected: declared,
                actual: have,
                what: "artifact body".to_string(),
            });
        }
        if declared < have {
            return Err(StateError::bad_header(
                format!("file is {have} bytes but header declares {declared}"),
                40,
                &bytes[40..],
            ));
        }
        let table_end = HEADER_LEN as u64 + count * ENTRY_LEN as u64;
        if table_end > have {
            return Err(StateError::Truncated {
                expected: table_end,
                actual: have,
                what: format!("section table ({count} entries)"),
            });
        }
        let table = &bytes[HEADER_LEN..table_end as usize];
        let expected = read_u32(bytes, 48);
        let actual = soteria_resilience::crc32(table);
        if expected != actual {
            return Err(StateError::bad_header(
                format!(
                    "section table checksum mismatch (header {expected:08x}, table {actual:08x})"
                ),
                HEADER_LEN as u64,
                table,
            ));
        }
        let mut sections = Vec::with_capacity(count as usize);
        for i in 0..count as usize {
            let e = &table[i * ENTRY_LEN..(i + 1) * ENTRY_LEN];
            let entry = SectionEntry {
                kind: read_u32(e, 0),
                elem: read_u32(e, 4),
                offset: read_u64(e, 8),
                len: read_u64(e, 16),
                crc: read_u32(e, 24),
                id: read_u32(e, 28),
            };
            let id = i as u32;
            if entry.id != id {
                return Err(StateError::BadSection {
                    id,
                    why: format!("entry {i} carries id {}", entry.id),
                });
            }
            if entry.kind > KIND_TENSOR {
                return Err(StateError::BadSection {
                    id,
                    why: format!("unknown section kind {}", entry.kind),
                });
            }
            if entry.elem > ELEM_U8 {
                return Err(StateError::BadSection {
                    id,
                    why: format!("unknown element code {}", entry.elem),
                });
            }
            if !entry.offset.is_multiple_of(SECTION_ALIGN as u64) {
                return Err(StateError::BadSection {
                    id,
                    why: format!(
                        "payload offset {} is not {SECTION_ALIGN}-byte aligned",
                        entry.offset
                    ),
                });
            }
            let end =
                entry
                    .offset
                    .checked_add(entry.len)
                    .ok_or_else(|| StateError::BadSection {
                        id,
                        why: "payload window overflows".to_string(),
                    })?;
            if end > have {
                return Err(StateError::BadSection {
                    id,
                    why: format!(
                        "payload window {}..{end} exceeds file length {have}",
                        entry.offset
                    ),
                });
            }
            let payload = &bytes[entry.offset as usize..end as usize];
            let actual = soteria_resilience::crc32(payload);
            if actual != entry.crc {
                return Err(StateError::SectionChecksum {
                    id,
                    expected: entry.crc,
                    actual,
                });
            }
            sections.push(entry);
        }
        let meta_entry = sections
            .first()
            .ok_or_else(|| StateError::bad_header("artifact has no sections", 24, &bytes[24..]))?;
        if meta_entry.kind != KIND_META {
            return Err(StateError::BadSection {
                id: 0,
                why: "section 0 must be the META document".to_string(),
            });
        }
        let meta_bytes =
            &bytes[meta_entry.offset as usize..(meta_entry.offset + meta_entry.len) as usize];
        let meta_str = std::str::from_utf8(meta_bytes)
            .map_err(|e| StateError::Parse(format!("META is not UTF-8: {e}")))?;
        let meta: ArtifactMeta =
            serde_json::from_str(meta_str).map_err(|e| StateError::Parse(e.to_string()))?;
        Ok(StateImage {
            buf: Arc::new(buf),
            sections,
            meta,
        })
    }

    /// The validated section table, in id order (golden-fixture and
    /// corruption tooling).
    pub fn sections(&self) -> &[SectionEntry] {
        &self.sections
    }

    /// Total artifact size in bytes.
    pub fn len_bytes(&self) -> usize {
        self.buf.len()
    }

    /// A zero-copy store over tensor section `id`.
    fn tensor<T: Scalar>(&self, id: u32) -> Result<WeightStore<T>, StateError> {
        let entry = self
            .sections
            .get(id as usize)
            .ok_or_else(|| StateError::BadSection {
                id,
                why: "tensor id out of range".to_string(),
            })?;
        if entry.kind != KIND_TENSOR {
            return Err(StateError::BadSection {
                id,
                why: "META references a non-tensor section as a tensor".to_string(),
            });
        }
        let want = elem_code::<T>();
        if entry.elem != want {
            return Err(StateError::BadSection {
                id,
                why: format!(
                    "META expects element {} (code {want}), section stores code {}",
                    T::NAME,
                    entry.elem
                ),
            });
        }
        let size = std::mem::size_of::<T>() as u64;
        if !entry.len.is_multiple_of(size) {
            return Err(StateError::BadSection {
                id,
                why: format!("payload length {} is not a multiple of {size}", entry.len),
            });
        }
        let view = TensorView::<T>::new(
            Arc::clone(&self.buf),
            entry.offset as usize,
            (entry.len / size) as usize,
        )
        .map_err(|e| StateError::BadSection {
            id,
            why: e.to_string(),
        })?;
        Ok(WeightStore::Shared(view))
    }

    fn vocab(&self, d: &VocabDesc) -> Result<Vocabulary, StateError> {
        let packed: WeightStore<u64> = self.tensor(d.packed)?;
        let lens: WeightStore<u8> = self.tensor(d.lens)?;
        let idf: WeightStore<f64> = self.tensor(d.idf)?;
        if packed.len() != lens.len() || packed.len() != idf.len() {
            return Err(StateError::Parse(format!(
                "vocabulary blobs disagree on length ({} grams, {} lens, {} idf)",
                packed.len(),
                lens.len(),
                idf.len()
            )));
        }
        let mut grams = Vec::with_capacity(packed.len());
        for (i, (&bits, &len)) in packed.iter().zip(lens.iter()).enumerate() {
            if !(1..=4).contains(&len) || (len < 4 && bits >> (16 * u32::from(len)) != 0) {
                return Err(StateError::Parse(format!(
                    "vocabulary gram {i} is malformed (len {len}, bits {bits:#x})"
                )));
            }
            grams.push(Gram::from_raw(len, bits));
        }
        Ok(Vocabulary::from_parts(grams, idf.to_vec()))
    }

    fn model(&self, descs: &[LayerDesc]) -> Result<ModelSpec, StateError> {
        let shape = |i: usize, what: &str, have: usize, want: usize| {
            if have == want {
                Ok(())
            } else {
                Err(StateError::Parse(format!(
                    "layer {i} {what} tensor has {have} elements, shape needs {want}"
                )))
            }
        };
        let mut layers = Vec::with_capacity(descs.len());
        for (i, desc) in descs.iter().enumerate() {
            let layer = match *desc {
                LayerDesc::Dense {
                    activation,
                    rows,
                    cols,
                    w,
                    b,
                } => {
                    let w: WeightStore<f32> = self.tensor(w)?;
                    let b: WeightStore<f32> = self.tensor(b)?;
                    shape(i, "weight", w.len(), rows.saturating_mul(cols))?;
                    shape(i, "bias", b.len(), cols)?;
                    LayerSpec::from(Dense::from_parts(
                        activation,
                        Matrix::from_store(rows, cols, w),
                        b,
                    ))
                }
                LayerDesc::Conv1d {
                    in_c,
                    out_c,
                    kernel,
                    length,
                    relu,
                    w,
                    b,
                } => {
                    if kernel % 2 == 0 {
                        return Err(StateError::Parse(format!(
                            "layer {i} conv1d kernel {kernel} must be odd"
                        )));
                    }
                    let w: WeightStore<f32> = self.tensor(w)?;
                    let b: WeightStore<f32> = self.tensor(b)?;
                    shape(i, "weight", w.len(), out_c * in_c * kernel)?;
                    shape(i, "bias", b.len(), out_c)?;
                    LayerSpec::from(Conv1d::from_parts(in_c, out_c, kernel, length, relu, w, b))
                }
                LayerDesc::Conv2d {
                    in_c,
                    out_c,
                    kernel,
                    height,
                    width,
                    relu,
                    w,
                    b,
                } => {
                    if kernel % 2 == 0 {
                        return Err(StateError::Parse(format!(
                            "layer {i} conv2d kernel {kernel} must be odd"
                        )));
                    }
                    let w: WeightStore<f32> = self.tensor(w)?;
                    let b: WeightStore<f32> = self.tensor(b)?;
                    shape(i, "weight", w.len(), out_c * in_c * kernel * kernel)?;
                    shape(i, "bias", b.len(), out_c)?;
                    LayerSpec::from(Conv2d::from_parts(
                        in_c, out_c, kernel, height, width, relu, w, b,
                    ))
                }
                LayerDesc::MaxPool1d {
                    channels,
                    length,
                    window,
                } => {
                    if window < 1 || window > length {
                        return Err(StateError::Parse(format!(
                            "layer {i} pool window {window} does not fit length {length}"
                        )));
                    }
                    LayerSpec::from(MaxPool1d::new(channels, length, window))
                }
                LayerDesc::MaxPool2d {
                    channels,
                    height,
                    width,
                    window,
                } => {
                    if window < 1 || window > height || window > width {
                        return Err(StateError::Parse(format!(
                            "layer {i} pool window {window} does not fit {height}x{width}"
                        )));
                    }
                    LayerSpec::from(MaxPool2d::new(channels, height, width, window))
                }
                LayerDesc::Dropout { p, seed, draws } => {
                    if !(0.0..1.0).contains(&p) {
                        return Err(StateError::Parse(format!(
                            "layer {i} dropout probability {p} not in [0, 1)"
                        )));
                    }
                    LayerSpec::from(Dropout::from_parts(p, seed, draws))
                }
            };
            layers.push(layer);
        }
        Ok(ModelSpec::new(layers))
    }

    /// Builds a [`SoteriaState`] whose tensors borrow this image's buffer
    /// (zero tensor copies; only vocabulary indices and layer scaffolding
    /// are allocated).
    ///
    /// # Errors
    ///
    /// Returns the typed [`StateError`] if the META document references
    /// sections inconsistently with its declared shapes.
    pub fn to_state(&self) -> Result<SoteriaState, StateError> {
        Ok(SoteriaState {
            config: self.meta.config.clone(),
            extractor: FeatureExtractor::from_parts(
                self.meta.extractor_config.clone(),
                self.vocab(&self.meta.dbl_vocab)?,
                self.vocab(&self.meta.lbl_vocab)?,
            ),
            detector_model: self.model(&self.meta.detector)?,
            detector_stats: self.meta.detector_stats,
            dbl_cnn: self.model(&self.meta.dbl_cnn)?,
            lbl_cnn: self.model(&self.meta.lbl_cnn)?,
        })
    }
}

impl Soteria {
    /// Builds a ready-to-serve system straight from a validated artifact
    /// image. Weight tensors stay borrowed from the image's buffer — no
    /// tensor is parsed or copied, so this is the instant-start load path.
    ///
    /// # Errors
    ///
    /// Returns the typed [`StateError`] if the image's META document is
    /// internally inconsistent.
    pub fn load_image(image: &StateImage) -> Result<Self, StateError> {
        Ok(Soteria::from_state(image.to_state()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SoteriaConfig;
    use soteria_corpus::{Corpus, CorpusConfig};

    fn small_trained() -> (Soteria, Corpus, Vec<usize>) {
        let corpus = Corpus::generate(&CorpusConfig {
            counts: [10, 10, 10, 10],
            seed: 61,
            av_noise: false,
            lineages: 3,
        });
        let split = corpus.split(0.8, 1);
        let soteria =
            Soteria::train(&SoteriaConfig::tiny(), &corpus, &split.train, 9).expect("train");
        (soteria, corpus, split.test)
    }

    #[test]
    fn artifact_round_trips_with_identical_verdicts() {
        let (original, corpus, test) = small_trained();
        let bytes = original.save_state().unwrap().to_artifact().unwrap();
        let image = StateImage::parse(&bytes).unwrap();
        let restored = Soteria::load_image(&image).unwrap();
        for (i, &idx) in test.iter().enumerate() {
            let g = corpus.samples()[idx].graph();
            assert_eq!(
                restored.analyze(g, i as u64),
                original.analyze(g, i as u64),
                "verdict mismatch on test sample {i}"
            );
        }
    }

    #[test]
    fn v2_to_v3_to_v2_is_byte_stable() {
        let (original, ..) = small_trained();
        let state = original.save_state().unwrap();
        let v2 = state.to_json().unwrap();
        let bytes = state.to_artifact().unwrap();
        let back = StateImage::parse(&bytes).unwrap().to_state().unwrap();
        assert_eq!(back.to_json().unwrap(), v2);
    }

    #[test]
    fn loaded_tensors_borrow_the_image_buffer() {
        let (original, ..) = small_trained();
        let bytes = original.save_state().unwrap().to_artifact().unwrap();
        let state = StateImage::parse(&bytes).unwrap().to_state().unwrap();
        let shared = state
            .detector_model
            .layers()
            .iter()
            .filter_map(|l| match l {
                LayerSpec::Dense(d) => Some(d.weights().is_shared()),
                _ => None,
            })
            .collect::<Vec<_>>();
        assert!(
            !shared.is_empty() && shared.iter().all(|&s| s),
            "{shared:?}"
        );
    }

    #[test]
    fn writer_layout_is_aligned_and_self_consistent() {
        let (original, ..) = small_trained();
        let bytes = original.save_state().unwrap().to_artifact().unwrap();
        let image = StateImage::parse(&bytes).unwrap();
        assert_eq!(image.len_bytes(), bytes.len());
        assert!(image.sections().len() > 10);
        assert_eq!(image.sections()[0].kind, KIND_META);
        for (i, s) in image.sections().iter().enumerate() {
            assert_eq!(s.id, i as u32);
            assert_eq!(s.offset % SECTION_ALIGN as u64, 0, "section {i}");
        }
    }

    #[test]
    fn corruption_is_typed_never_a_panic() {
        let (original, ..) = small_trained();
        let bytes = original.save_state().unwrap().to_artifact().unwrap();

        // Magic damage.
        let mut b = bytes.clone();
        b[0] ^= 0xFF;
        assert!(matches!(
            StateImage::parse(&b),
            Err(StateError::BadHeader { offset: 0, .. })
        ));
        // Version bump (header CRC also breaks, but typed either way).
        let mut b = bytes.clone();
        b[20] = 0x7F;
        assert!(StateImage::parse(&b).is_err());
        // Header truncation.
        assert!(matches!(
            StateImage::parse(&bytes[..32]),
            Err(StateError::Truncated { .. })
        ));
        // Body truncation.
        assert!(matches!(
            StateImage::parse(&bytes[..bytes.len() - 7]),
            Err(StateError::Truncated { .. })
        ));
        // Payload bit flip → that section's checksum.
        let image = StateImage::parse(&bytes).unwrap();
        let tensor = image
            .sections()
            .iter()
            .find(|s| s.kind == KIND_TENSOR)
            .unwrap();
        let mut b = bytes.clone();
        b[tensor.offset as usize] ^= 0x01;
        assert!(matches!(
            StateImage::parse(&b),
            Err(StateError::SectionChecksum { .. })
        ));
        // Section-table bit flip → table checksum, reported as BadHeader
        // with the table offset.
        let mut b = bytes;
        b[HEADER_LEN + 8] ^= 0x40;
        match StateImage::parse(&b) {
            Err(StateError::BadHeader { offset, .. }) => {
                assert_eq!(offset, HEADER_LEN as u64);
            }
            other => panic!("expected BadHeader, got {other:?}"),
        }
    }

    #[test]
    fn bad_header_reports_offset_and_hex() {
        let mut junk = b"definitely not an artifact header".to_vec();
        junk.resize(HEADER_LEN, 0);
        let err = StateImage::parse(&junk).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("offset 0"), "{msg}");
        assert!(msg.contains("64 65 66"), "hex of 'def' missing: {msg}");
    }

    #[test]
    fn artifact_files_round_trip_through_disk() {
        let (original, corpus, test) = small_trained();
        let dir = std::env::temp_dir().join(format!("soteria-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.soteria3");
        let state = original.save_state().unwrap();
        state.save_artifact_to_path(&path).unwrap();

        // The direct image path.
        let a = Soteria::load_image(&StateImage::open(&path).unwrap()).unwrap();
        // The sniffing loader sees the magic and takes the artifact path.
        let b = Soteria::from_state(SoteriaState::load_from_path(&path).unwrap());
        let g = corpus.samples()[test[0]].graph();
        assert_eq!(a.analyze(g, 5), original.analyze(g, 5));
        assert_eq!(b.analyze(g, 5), original.analyze(g, 5));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
