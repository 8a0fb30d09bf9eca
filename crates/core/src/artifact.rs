//! `SOTERIA-STATE v3`: the binary model artifact, the one on-disk form of
//! a trained system.
//!
//! The artifact lays tensors out as raw, 64-byte-aligned blobs inside one
//! contiguous file. Loading reads the file once, checks every CRC, and
//! copies each checked tensor section into the `Vec` its layer owns; no
//! number is parsed from text. Every file load goes through
//! [`StateImage::open`] and [`Soteria::load_image`].
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
//!
//! Checksums cannot vouch for a META document that was written wrong, so
//! [`StateImage::to_state`] also checks that each network's layer widths
//! chain and fit the extractor: a model that would fail every request is
//! refused at load, before it can be swapped in.

use crate::persist::{SoteriaState, StateError};
use crate::pipeline::Soteria;
use serde::{Deserialize, Serialize};
use soteria_features::{ExtractorConfig, FeatureExtractor, Gram, Vocabulary};
use soteria_nn::{Activation, Conv1d, Dense, Dropout, LayerSpec, Matrix, MaxPool1d, Sequential};
use std::collections::HashMap;
use std::path::Path;

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
/// Alignment of every section payload.
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

/// A type a tensor section stores: its on-disk `element` code and its
/// native-endian byte form.
trait Element: Copy {
    /// The section table's element code.
    const CODE: u32;
    /// Type name for error messages.
    const NAME: &'static str;
    /// Appends the element's native-endian bytes.
    fn put(self, out: &mut Vec<u8>);
    /// Reads one element from exactly `size_of::<Self>()` bytes.
    fn get(bytes: &[u8]) -> Self;
}

macro_rules! element {
    ($($t:ty => $code:expr),* $(,)?) => {$(
        impl Element for $t {
            const CODE: u32 = $code;
            const NAME: &'static str = stringify!($t);
            fn put(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_ne_bytes());
            }
            fn get(bytes: &[u8]) -> Self {
                <$t>::from_ne_bytes(bytes.try_into().expect("one element's bytes"))
            }
        }
    )*};
}

element!(f32 => ELEM_F32, f64 => ELEM_F64, u64 => ELEM_U64, u8 => ELEM_U8);

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

impl SectionEntry {
    /// Decodes one [`ENTRY_LEN`]-byte section-table entry.
    fn read(e: &[u8]) -> Self {
        SectionEntry {
            kind: read_u32(e, 0),
            elem: read_u32(e, 4),
            offset: read_u64(e, 8),
            len: read_u64(e, 16),
            crc: read_u32(e, 24),
            id: read_u32(e, 28),
        }
    }

    /// Encodes this entry into an [`ENTRY_LEN`]-byte table slot.
    fn write(&self, e: &mut [u8]) {
        e[0..4].copy_from_slice(&self.kind.to_ne_bytes());
        e[4..8].copy_from_slice(&self.elem.to_ne_bytes());
        e[8..16].copy_from_slice(&self.offset.to_ne_bytes());
        e[16..24].copy_from_slice(&self.len.to_ne_bytes());
        e[24..28].copy_from_slice(&self.crc.to_ne_bytes());
        e[28..32].copy_from_slice(&self.id.to_ne_bytes());
    }
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

/// One f32 layer, shapes inline and tensors by section id. Only the layer
/// kinds Soteria's networks use are described; a 2-D layer is not.
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
    MaxPool1d {
        channels: usize,
        length: usize,
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

    /// Appends `data` as the next tensor section and returns its id.
    fn push<T: Element>(&mut self, data: &[T]) -> u32 {
        let mut bytes = Vec::with_capacity(std::mem::size_of_val(data));
        for &v in data {
            v.put(&mut bytes);
        }
        self.sections.push((T::CODE, bytes));
        self.sections.len() as u32
    }
}

fn vocab_desc(vocab: &Vocabulary, sink: &mut TensorSink) -> VocabDesc {
    let packed: Vec<u64> = vocab.grams().iter().map(|g| g.packed()).collect();
    let lens: Vec<u8> = vocab.grams().iter().map(|g| g.len() as u8).collect();
    VocabDesc {
        packed: sink.push(&packed),
        lens: sink.push(&lens),
        idf: sink.push(vocab.idf_weights()),
    }
}

/// Describes network `net`, pushing its tensors into `sink`.
fn model_desc(
    net: &str,
    model: &Sequential,
    sink: &mut TensorSink,
) -> Result<Vec<LayerDesc>, StateError> {
    let not_described = |i: usize, kind: &str| {
        StateError::Parse(format!(
            "{net} layer {i} is a {kind}, which the v3 artifact does not describe"
        ))
    };
    model
        .layers()
        .iter()
        .enumerate()
        .map(|(i, layer)| match layer {
            LayerSpec::Dense(d) => Ok(LayerDesc::Dense {
                activation: d.activation(),
                rows: d.weights().rows(),
                cols: d.weights().cols(),
                w: sink.push(d.weights().data()),
                b: sink.push(d.bias()),
            }),
            LayerSpec::Conv1d(c) => Ok(LayerDesc::Conv1d {
                in_c: c.in_channels(),
                out_c: c.out_channels(),
                kernel: c.kernel(),
                length: c.length(),
                relu: c.relu(),
                w: sink.push(c.weights()),
                b: sink.push(c.bias()),
            }),
            LayerSpec::MaxPool1d(p) => Ok(LayerDesc::MaxPool1d {
                channels: p.channels(),
                length: p.length(),
                window: p.window(),
            }),
            LayerSpec::Dropout(d) => Ok(LayerDesc::Dropout {
                p: d.probability(),
                seed: d.seed(),
                draws: d.draws(),
            }),
            LayerSpec::Conv2d(_) => Err(not_described(i, "Conv2d")),
            LayerSpec::MaxPool2d(_) => Err(not_described(i, "MaxPool2d")),
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
        detector: model_desc("detector", &state.detector_model, &mut sink)?,
        dbl_cnn: model_desc("DBL CNN", &state.dbl_cnn, &mut sink)?,
        lbl_cnn: model_desc("LBL CNN", &state.lbl_cnn, &mut sink)?,
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
        let entry = SectionEntry {
            kind: *kind,
            elem: *elem,
            offset: offset as u64,
            len: bytes.len() as u64,
            crc: soteria_resilience::crc32(bytes),
            id: i as u32,
        };
        entry.write(&mut out[HEADER_LEN + i * ENTRY_LEN..HEADER_LEN + (i + 1) * ENTRY_LEN]);
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

/// A validated, loaded v3 artifact: the file's bytes plus the parsed META
/// document and section table.
///
/// Opening validates every checksum once; [`StateImage::to_state`] then
/// copies each tensor section into the [`SoteriaState`] it builds.
pub struct StateImage {
    bytes: Vec<u8>,
    sections: Vec<SectionEntry>,
    meta: ArtifactMeta,
}

// Sizes only: a derived impl would print every byte of the file.
impl std::fmt::Debug for StateImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateImage")
            .field("len_bytes", &self.bytes.len())
            .field("sections", &self.sections.len())
            .finish_non_exhaustive()
    }
}

impl StateImage {
    /// Reads and validates an artifact file.
    ///
    /// # Errors
    ///
    /// [`StateError::Io`] on filesystem failure; otherwise the typed
    /// [`StateError`] diagnosing the malformed structure.
    pub fn open(path: &Path) -> Result<Self, StateError> {
        let bytes =
            std::fs::read(path).map_err(|e| StateError::Io(format!("{}: {e}", path.display())))?;
        Self::from_buffer(bytes)
    }

    /// Validates an in-memory artifact (the bytes are copied once — the
    /// corruption batteries use this to avoid disk round trips).
    ///
    /// # Errors
    ///
    /// The typed [`StateError`] diagnosing the malformed structure.
    pub fn parse(bytes: &[u8]) -> Result<Self, StateError> {
        Self::from_buffer(bytes.to_vec())
    }

    /// Validates the header, the section table and every checksum. Each
    /// entry it accepts has a 64-byte-aligned payload window inside the
    /// file, which is what lets [`StateImage::tensor`] slice it.
    fn from_buffer(buf: Vec<u8>) -> Result<Self, StateError> {
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
            let entry = SectionEntry::read(&table[i * ENTRY_LEN..(i + 1) * ENTRY_LEN]);
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
            bytes: buf,
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
        self.bytes.len()
    }

    /// Copies tensor section `id` out as `T` elements, once META's
    /// reference is checked to name a tensor section of `T` that holds a
    /// whole number of them.
    fn tensor<T: Element>(&self, id: u32) -> Result<Vec<T>, StateError> {
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
        let want = T::CODE;
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
        let size = std::mem::size_of::<T>();
        if !entry.len.is_multiple_of(size as u64) {
            return Err(StateError::BadSection {
                id,
                why: format!("payload length {} is not a multiple of {size}", entry.len),
            });
        }
        // `from_buffer` accepted this window, so it lies inside the file.
        let payload = &self.bytes[entry.offset as usize..(entry.offset + entry.len) as usize];
        Ok(payload.chunks_exact(size).map(T::get).collect())
    }

    fn vocab(&self, d: &VocabDesc) -> Result<Vocabulary, StateError> {
        let packed: Vec<u64> = self.tensor(d.packed)?;
        let lens: Vec<u8> = self.tensor(d.lens)?;
        let idf: Vec<f64> = self.tensor(d.idf)?;
        if packed.len() != lens.len() || packed.len() != idf.len() {
            return Err(StateError::Parse(format!(
                "vocabulary blobs disagree on length ({} grams, {} lens, {} idf)",
                packed.len(),
                lens.len(),
                idf.len()
            )));
        }
        let mut grams = Vec::with_capacity(packed.len());
        // A fitted vocabulary never repeats a gram; a repeat would leave
        // the earlier copy's feature forever zero.
        let mut first = HashMap::with_capacity(packed.len());
        for (i, (&bits, &len)) in packed.iter().zip(lens.iter()).enumerate() {
            if !(1..=4).contains(&len) || (len < 4 && bits >> (16 * u32::from(len)) != 0) {
                return Err(StateError::Parse(format!(
                    "vocabulary gram {i} is malformed (len {len}, bits {bits:#x})"
                )));
            }
            let gram = Gram::from_raw(len, bits);
            if let Some(j) = first.insert(gram, i) {
                return Err(StateError::Parse(format!(
                    "vocabulary gram {i} repeats gram {j} {gram}"
                )));
            }
            grams.push(gram);
        }
        Ok(Vocabulary::from_parts(grams, idf))
    }

    /// Builds network `net` from its META layers. Each layer's tensors
    /// must match its declared shape, and the declared widths must chain
    /// from `input` to `output` values per sample (Dropout passes its
    /// width through).
    fn model(
        &self,
        net: &str,
        descs: &[LayerDesc],
        input: usize,
        output: usize,
    ) -> Result<Sequential, StateError> {
        let shape = |i: usize, what: &str, have: usize, want: usize| {
            if have == want {
                Ok(())
            } else {
                Err(StateError::Parse(format!(
                    "layer {i} {what} tensor has {have} elements, shape needs {want}"
                )))
            }
        };
        // Elements a declared weight shape holds; META values are untrusted,
        // so a product that overflows is an error, not a wrapped count.
        let elements = |i: usize, dims: &[usize]| {
            dims.iter()
                .try_fold(1usize, |n, &d| n.checked_mul(d))
                .ok_or_else(|| {
                    StateError::Parse(format!("{net} layer {i} weight shape {dims:?} overflows"))
                })
        };
        let mut layers = Vec::with_capacity(descs.len());
        // Values per sample the next layer receives.
        let mut incoming = input;
        for (i, desc) in descs.iter().enumerate() {
            let (layer, widths) = match *desc {
                LayerDesc::Dense {
                    activation,
                    rows,
                    cols,
                    w,
                    b,
                } => {
                    let w: Vec<f32> = self.tensor(w)?;
                    let b: Vec<f32> = self.tensor(b)?;
                    shape(i, "weight", w.len(), elements(i, &[rows, cols])?)?;
                    shape(i, "bias", b.len(), cols)?;
                    let dense = Dense::from_parts(activation, Matrix::from_vec(rows, cols, w), b);
                    (LayerSpec::from(dense), Some((rows, cols)))
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
                    let w: Vec<f32> = self.tensor(w)?;
                    let b: Vec<f32> = self.tensor(b)?;
                    shape(i, "weight", w.len(), elements(i, &[out_c, in_c, kernel])?)?;
                    shape(i, "bias", b.len(), out_c)?;
                    let conv = Conv1d::from_parts(in_c, out_c, kernel, length, relu, w, b);
                    let widths = (in_c.saturating_mul(length), out_c.saturating_mul(length));
                    (LayerSpec::from(conv), Some(widths))
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
                    let widths = (
                        channels.saturating_mul(length),
                        channels.saturating_mul(length / window),
                    );
                    (
                        LayerSpec::from(MaxPool1d::new(channels, length, window)),
                        Some(widths),
                    )
                }
                LayerDesc::Dropout { p, seed, draws } => {
                    if !(0.0..1.0).contains(&p) {
                        return Err(StateError::Parse(format!(
                            "layer {i} dropout probability {p} not in [0, 1)"
                        )));
                    }
                    (LayerSpec::from(Dropout::from_parts(p, seed, draws)), None)
                }
            };
            if let Some((takes, gives)) = widths {
                if takes != incoming {
                    return Err(StateError::Parse(format!(
                        "{net} layer {i} takes {takes} values per sample, but receives {incoming}"
                    )));
                }
                incoming = gives;
            }
            layers.push(layer);
        }
        if incoming != output {
            return Err(StateError::Parse(format!(
                "{net} gives {incoming} values per sample, but {output} are needed"
            )));
        }
        Ok(Sequential::new(layers))
    }

    /// Builds a [`SoteriaState`] that owns a copy of every tensor this
    /// image's META document references.
    ///
    /// # Errors
    ///
    /// Returns the typed [`StateError`] if the META document references
    /// sections inconsistently with its declared shapes, if the extractor
    /// could not extract (an n-gram size outside 1..=4) or its vocabulary
    /// repeats a gram, or if a network's layer widths do not chain from
    /// the extractor's feature width: the detector maps `combined_dim`
    /// back to `combined_dim`, and each CNN maps `per_labeling_dim` to one
    /// logit per class.
    pub fn to_state(&self) -> Result<SoteriaState, StateError> {
        let meta = &self.meta;
        let sizes = &meta.extractor_config.ngram_sizes;
        if let Some(n) = sizes.iter().find(|n| !(1..=4).contains(*n)) {
            return Err(StateError::Parse(format!(
                "extractor n-gram size {n} not in 1..=4 (sizes {sizes:?})"
            )));
        }
        let extractor = FeatureExtractor::from_parts(
            meta.extractor_config.clone(),
            self.vocab(&meta.dbl_vocab)?,
            self.vocab(&meta.lbl_vocab)?,
        );
        let (combined, per_labeling) = (extractor.combined_dim(), extractor.per_labeling_dim());
        let classes = meta.config.classes;
        Ok(SoteriaState {
            config: meta.config.clone(),
            detector_model: self.model("detector", &meta.detector, combined, combined)?,
            detector_stats: meta.detector_stats,
            dbl_cnn: self.model("DBL CNN", &meta.dbl_cnn, per_labeling, classes)?,
            lbl_cnn: self.model("LBL CNN", &meta.lbl_cnn, per_labeling, classes)?,
            extractor,
        })
    }
}

impl Soteria {
    /// Builds a ready-to-serve system from a validated artifact image,
    /// copying each tensor out of the image once.
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
    use soteria_nn::{Conv2d, MaxPool2d};

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
    fn v3_to_state_to_v3_is_byte_stable() {
        let (original, ..) = small_trained();
        let bytes = original.save_state().unwrap().to_artifact().unwrap();
        let back = StateImage::parse(&bytes).unwrap().to_state().unwrap();
        assert_eq!(back.to_artifact().unwrap(), bytes);
    }

    #[test]
    fn networks_that_do_not_fit_the_extractor_are_refused() {
        let (original, ..) = small_trained();
        let mut state = original.save_state().unwrap();
        // The DBL CNN in the detector's place: every layer's own tensors
        // match its shape, but its 64-wide input does not fit the
        // 128-wide combined vector.
        state.detector_model = original.save_state().unwrap().dbl_cnn;
        let image = StateImage::parse(&state.to_artifact().unwrap()).unwrap();
        let err = Soteria::load_image(&image).expect_err("a misfit detector must not load");
        assert!(matches!(err, StateError::Parse(_)), "{err:?}");
        assert!(err.to_string().contains("detector layer 0"), "{err}");

        // CNNs that vote over more classes than the config declares.
        let mut state = original.save_state().unwrap();
        state.config.classes -= 1;
        let image = StateImage::parse(&state.to_artifact().unwrap()).unwrap();
        let err = Soteria::load_image(&image).expect_err("a misfit classifier must not load");
        assert!(err.to_string().contains("DBL CNN gives 4"), "{err}");
    }

    #[test]
    fn extractors_that_repeat_a_gram_or_cannot_extract_are_refused() {
        let (original, ..) = small_trained();
        let refused = |state: &SoteriaState| {
            let image = StateImage::parse(&state.to_artifact().unwrap()).unwrap();
            let err = Soteria::load_image(&image).expect_err("the extractor must not load");
            assert!(matches!(err, StateError::Parse(_)), "{err:?}");
            err.to_string()
        };

        // A DBL vocabulary that lists its first gram again at the end.
        let mut state = original.save_state().unwrap();
        let ex = &state.extractor;
        let (mut grams, mut idf) = (
            ex.dbl_vocabulary().grams().to_vec(),
            ex.dbl_vocabulary().idf_weights().to_vec(),
        );
        let last = grams.len();
        grams.push(grams[0]);
        idf.push(idf[0]);
        state.extractor = FeatureExtractor::from_parts(
            ex.config().clone(),
            Vocabulary::from_parts(grams, idf),
            ex.lbl_vocabulary().clone(),
        );
        let why = refused(&state);
        assert!(
            why.contains(&format!("gram {last} repeats gram 0")),
            "{why}"
        );

        // n-gram sizes every extraction would panic on.
        for sizes in [vec![2, 0], vec![5], vec![2, 3, 4, 8]] {
            let mut state = original.save_state().unwrap();
            let ex = &state.extractor;
            let config = ExtractorConfig {
                ngram_sizes: sizes,
                ..ex.config().clone()
            };
            state.extractor = FeatureExtractor::from_parts(
                config,
                ex.dbl_vocabulary().clone(),
                ex.lbl_vocabulary().clone(),
            );
            let why = refused(&state);
            assert!(why.contains("not in 1..=4"), "{why}");
        }
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
        state.save_to_path(&path).unwrap();

        let restored = Soteria::load_image(&StateImage::open(&path).unwrap()).unwrap();
        let g = corpus.samples()[test[0]].graph();
        assert_eq!(restored.analyze(g, 5), original.analyze(g, 5));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Rewrites section `id`'s table entry with `edit`, then reseals the
    /// checksums the edit broke: the section's payload CRC (when its
    /// window lies inside the file), the table CRC and the header CRC.
    /// What comes out passes every checksum, so only the structural checks
    /// that run after them can refuse it.
    fn reseal(bytes: &[u8], id: usize, edit: impl FnOnce(&mut SectionEntry)) -> Vec<u8> {
        let count = read_u32(bytes, 24) as usize;
        let slot = HEADER_LEN + id * ENTRY_LEN..HEADER_LEN + (id + 1) * ENTRY_LEN;
        let mut entry = SectionEntry::read(&bytes[slot.clone()]);
        edit(&mut entry);
        let mut out = bytes.to_vec();
        if let Some(end) = entry.offset.checked_add(entry.len) {
            if end <= out.len() as u64 {
                entry.crc = soteria_resilience::crc32(&out[entry.offset as usize..end as usize]);
            }
        }
        entry.write(&mut out[slot]);
        let table_crc = soteria_resilience::crc32(&out[HEADER_LEN..HEADER_LEN + count * ENTRY_LEN]);
        out[48..52].copy_from_slice(&table_crc.to_ne_bytes());
        let header_crc = soteria_resilience::crc32(&out[0..52]);
        out[52..56].copy_from_slice(&header_crc.to_ne_bytes());
        out
    }

    /// The `BadSection` a resealed artifact fails with, from parsing or,
    /// when it parses, from loading.
    fn bad_section(bytes: &[u8]) -> (u32, String) {
        match StateImage::parse(bytes).and_then(|image| image.to_state()) {
            Err(StateError::BadSection { id, why }) => (id, why),
            other => panic!("expected BadSection, got {other:?}"),
        }
    }

    #[test]
    fn checksum_valid_artifacts_reach_every_section_check() {
        let (original, ..) = small_trained();
        let bytes = original.save_state().unwrap().to_artifact().unwrap();
        let image = StateImage::parse(&bytes).unwrap();
        let f32_id = image
            .sections()
            .iter()
            .position(|s| s.elem == ELEM_F32)
            .unwrap();
        let last = image.sections().len() - 1;
        let file_len = bytes.len() as u64;

        // The resealed but unedited file still loads.
        assert!(StateImage::parse(&reseal(&bytes, f32_id, |_| {}))
            .and_then(|image| image.to_state())
            .is_ok());

        let (id, why) = bad_section(&reseal(&bytes, f32_id, |e| e.offset += 4));
        assert_eq!(id as usize, f32_id);
        assert!(why.contains("64-byte aligned"), "{why}");

        let (id, why) = bad_section(&reseal(&bytes, last, |e| e.len = file_len));
        assert_eq!(id as usize, last);
        assert!(why.contains("exceeds file length"), "{why}");
        let (_, why) = bad_section(&reseal(&bytes, last, |e| e.len = u64::MAX));
        assert!(why.contains("overflows"), "{why}");

        let (id, why) = bad_section(&reseal(&bytes, f32_id, |e| e.len -= 1));
        assert_eq!(id as usize, f32_id);
        assert!(why.contains("not a multiple of 4"), "{why}");

        let (id, why) = bad_section(&reseal(&bytes, f32_id, |e| e.elem = ELEM_F64));
        assert_eq!(id as usize, f32_id);
        assert!(why.contains("META expects element f32"), "{why}");

        let (id, why) = bad_section(&reseal(&bytes, f32_id, |e| e.id = 99));
        assert_eq!(id as usize, f32_id);
        assert!(why.contains("carries id 99"), "{why}");

        // A META tensor reference to section 0 (META itself): the edit
        // keeps META's length, and resealing section 0 re-CRCs it.
        let meta = image.sections()[0];
        let window = meta.offset as usize..(meta.offset + meta.len) as usize;
        let text = std::str::from_utf8(&bytes[window.clone()]).unwrap();
        let edited = text.replacen("\"packed\":1,", "\"packed\":0,", 1);
        assert_ne!(
            edited, text,
            "META names the first vocabulary blob section 1"
        );
        let mut b = bytes.clone();
        b[window].copy_from_slice(edited.as_bytes());
        let (id, why) = bad_section(&reseal(&b, 0, |_| {}));
        assert_eq!(id, 0);
        assert!(why.contains("non-tensor section"), "{why}");
    }

    /// An image and the id of a 4-element f32 section in it (a CNN's
    /// output bias, one per class), to serve as both weight and bias of a
    /// crafted layer.
    fn image_with_a_4_element_section() -> (StateImage, u32) {
        let (original, ..) = small_trained();
        let bytes = original.save_state().unwrap().to_artifact().unwrap();
        let image = StateImage::parse(&bytes).unwrap();
        let id = image
            .sections()
            .iter()
            .find(|s| s.elem == ELEM_F32 && s.len == 16)
            .unwrap()
            .id;
        (image, id)
    }

    #[test]
    fn conv1d_shape_whose_weight_count_overflows_is_refused() {
        let (image, id) = image_with_a_4_element_section();
        // 4 · 1 · (2^63 + 1) wraps to 4 in 64 bits.
        let conv = LayerDesc::Conv1d {
            in_c: 1,
            out_c: 4,
            kernel: (1 << 63) + 1,
            length: 8,
            relu: true,
            w: id,
            b: id,
        };
        let err = image.model("DBL CNN", &[conv], 8, 32).unwrap_err();
        assert!(matches!(err, StateError::Parse(_)), "{err:?}");
        assert!(err.to_string().contains("DBL CNN layer 0"), "{err}");
    }

    #[test]
    fn a_network_with_a_2d_layer_is_refused_at_write() {
        let (original, ..) = small_trained();
        for (layer, kind) in [
            (
                LayerSpec::from(Conv2d::new(1, 1, 3, 2, 2, true, 1)),
                "Conv2d",
            ),
            (LayerSpec::from(MaxPool2d::new(1, 2, 2, 2)), "MaxPool2d"),
        ] {
            let mut state = original.save_state().unwrap();
            state.lbl_cnn = Sequential::new(vec![layer]);
            let err = state
                .to_artifact()
                .expect_err("a 2-D layer has no descriptor");
            assert!(matches!(err, StateError::Parse(_)), "{err:?}");
            assert!(
                err.to_string()
                    .contains(&format!("LBL CNN layer 0 is a {kind}")),
                "{err}"
            );
        }
    }

    #[test]
    fn a_meta_that_names_a_2d_layer_fails_to_load() {
        let (original, ..) = small_trained();
        let bytes = original.save_state().unwrap().to_artifact().unwrap();
        let meta = StateImage::parse(&bytes).unwrap().sections()[0];
        let window = meta.offset as usize..(meta.offset + meta.len) as usize;
        let text = std::str::from_utf8(&bytes[window.clone()]).unwrap();
        // Same length, so the edit keeps every section in place.
        let edited = text.replacen("{\"Conv1d\":", "{\"Conv2d\":", 1);
        assert_ne!(edited, text, "META describes a Conv1d layer");
        let mut b = bytes.clone();
        b[window].copy_from_slice(edited.as_bytes());
        let err = StateImage::parse(&reseal(&b, 0, |_| {})).expect_err("no Conv2d descriptor");
        assert!(matches!(err, StateError::Parse(_)), "{err:?}");
        assert!(
            err.to_string().contains("unknown variant `Conv2d`"),
            "{err}"
        );
    }
}
