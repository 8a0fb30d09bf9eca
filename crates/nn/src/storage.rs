//! Cow-style weight storage for zero-copy model loading.
//!
//! The `SOTERIA-STATE v3` binary artifact stores every weight tensor as a
//! 64-byte-aligned little-endian blob inside one contiguous buffer. A
//! loaded model *borrows* its weights straight out of that buffer instead
//! of parsing and re-allocating them:
//!
//! * [`AlignedBytes`] is the buffer itself — one allocation, aligned to
//!   [`BUFFER_ALIGN`], shared across models via `Arc`;
//! * [`TensorView`] is a checked, typed window into the buffer (offset +
//!   element count, validated for alignment and bounds at construction);
//! * [`WeightStore`] is the cow enum every layer stores its parameters in:
//!   [`WeightStore::Owned`] for trained/deserialized weights,
//!   [`WeightStore::Shared`] for artifact-borrowed weights. Mutation
//!   (training a loaded model) transparently copies to `Owned` first.
//!
//! Serde treats a `WeightStore<T>` exactly like a `Vec<T>`, so the JSON
//! shape of every persisted model is unchanged and v2→v3→v2 round trips
//! are byte-stable.
//!
//! This is the only module in the crate allowed to use `unsafe`; both
//! unsafe blocks are slice reinterpretations whose alignment and bounds
//! are proven at `TensorView` construction time.

use serde::{Deserialize, Serialize, Value};
use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::path::Path;
use std::ptr::NonNull;
use std::sync::Arc;

/// Alignment (bytes) of an [`AlignedBytes`] allocation and of every tensor
/// section inside a v3 artifact. 64 covers every scalar the artifact
/// stores and matches a cache line.
pub const BUFFER_ALIGN: usize = 64;

mod sealed {
    /// Closed set of element types an artifact tensor may hold.
    pub trait Sealed {}
}

/// Scalar element types a [`TensorView`] may reinterpret bytes as.
///
/// The trait is sealed: every implementor is a plain-old-data numeric type
/// with no padding, no invalid bit patterns, and a fixed little-endian
/// layout, which is what makes the byte reinterpretation in
/// [`TensorView::as_slice`] sound.
pub trait Scalar:
    Copy + Send + Sync + PartialEq + std::fmt::Debug + sealed::Sealed + 'static
{
    /// Short type name for error messages and artifact metadata.
    const NAME: &'static str;
}

macro_rules! impl_scalar {
    ($($t:ty => $name:literal),* $(,)?) => {$(
        impl sealed::Sealed for $t {}
        impl Scalar for $t {
            const NAME: &'static str = $name;
        }
    )*};
}

impl_scalar!(f32 => "f32", u8 => "u8", f64 => "f64", u64 => "u64");

/// A heap buffer aligned to [`BUFFER_ALIGN`], immutable once shared.
///
/// This is the backing storage of a loaded artifact: the whole file lives
/// in one of these, and every [`TensorView`] borrows from it through an
/// `Arc`.
pub struct AlignedBytes {
    ptr: NonNull<u8>,
    len: usize,
}

// SAFETY: the buffer is a plain byte allocation; once constructed it is
// only ever read (mutation requires `&mut self`, which `Arc` sharing
// forbids), so sharing references across threads is sound.
#[allow(unsafe_code)]
unsafe impl Send for AlignedBytes {}
#[allow(unsafe_code)]
unsafe impl Sync for AlignedBytes {}

impl AlignedBytes {
    fn layout(len: usize) -> Layout {
        // A zero-size allocation is still given one aligned block so the
        // pointer is always valid and aligned.
        Layout::from_size_align(len.max(1), BUFFER_ALIGN).expect("valid aligned layout")
    }

    /// Allocates a zeroed buffer of `len` bytes.
    #[allow(unsafe_code)]
    pub fn zeroed(len: usize) -> Self {
        // SAFETY: the layout has non-zero size (see `layout`).
        let raw = unsafe { alloc_zeroed(Self::layout(len)) };
        let ptr =
            NonNull::new(raw).unwrap_or_else(|| std::alloc::handle_alloc_error(Self::layout(len)));
        AlignedBytes { ptr, len }
    }

    /// Copies `bytes` into a fresh aligned buffer (one allocation).
    pub fn copy_from(bytes: &[u8]) -> Self {
        let mut buf = Self::zeroed(bytes.len());
        buf.as_mut_slice().copy_from_slice(bytes);
        buf
    }

    /// Reads an entire file into a fresh aligned buffer: one metadata
    /// query, one allocation, one `read_exact` — no intermediate `Vec`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures, including a file that changes size between
    /// the metadata query and the read.
    pub fn read_file(path: &Path) -> std::io::Result<Self> {
        use std::io::Read;
        let mut file = std::fs::File::open(path)?;
        let len = usize::try_from(file.metadata()?.len()).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large for memory")
        })?;
        let mut buf = Self::zeroed(len);
        file.read_exact(buf.as_mut_slice())?;
        // A trailing byte means the file grew since the metadata query;
        // loading a torn file would fail CRC checks anyway, but detecting
        // it here gives a cleaner error.
        let mut probe = [0u8; 1];
        if file.read(&mut probe)? != 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "file changed size during read",
            ));
        }
        Ok(buf)
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The buffer contents.
    #[allow(unsafe_code)]
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: `ptr` is valid for `len` bytes for the lifetime of
        // `self` and the memory is initialized (zeroed at allocation).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Mutable buffer contents (only reachable while uniquely owned).
    #[allow(unsafe_code)]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: as above, plus `&mut self` guarantees exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for AlignedBytes {
    #[allow(unsafe_code)]
    fn drop(&mut self) {
        // SAFETY: `ptr` was allocated with exactly this layout.
        unsafe { dealloc(self.ptr.as_ptr(), Self::layout(self.len)) };
    }
}

impl std::fmt::Debug for AlignedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedBytes")
            .field("len", &self.len)
            .field("align", &BUFFER_ALIGN)
            .finish()
    }
}

/// Why a [`TensorView`] could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ViewError {
    /// The byte offset is not a multiple of the element size.
    Unaligned {
        /// Requested byte offset into the buffer.
        offset: usize,
        /// Required alignment (the element size).
        align: usize,
    },
    /// The requested window extends past the end of the buffer.
    OutOfBounds {
        /// Requested byte offset into the buffer.
        offset: usize,
        /// Requested window length in bytes.
        bytes: usize,
        /// Actual buffer length in bytes.
        buffer_len: usize,
    },
}

impl std::fmt::Display for ViewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViewError::Unaligned { offset, align } => {
                write!(f, "tensor offset {offset} is not {align}-byte aligned")
            }
            ViewError::OutOfBounds {
                offset,
                bytes,
                buffer_len,
            } => write!(
                f,
                "tensor window [{offset}, {offset}+{bytes}) exceeds buffer of {buffer_len} bytes"
            ),
        }
    }
}

impl std::error::Error for ViewError {}

/// A typed, validated window into a shared [`AlignedBytes`] buffer.
///
/// Construction proves alignment and bounds once; afterwards
/// [`as_slice`](TensorView::as_slice) is a constant-time pointer cast.
/// Cloning bumps the buffer's `Arc` — no bytes move.
pub struct TensorView<T: Scalar> {
    buf: Arc<AlignedBytes>,
    offset: usize,
    len: usize,
    _elem: PhantomData<T>,
}

impl<T: Scalar> TensorView<T> {
    /// Creates a view of `len` elements of `T` starting `offset` bytes
    /// into `buf`.
    ///
    /// # Errors
    ///
    /// [`ViewError::Unaligned`] when `offset` is not a multiple of
    /// `align_of::<T>()` (the buffer base is [`BUFFER_ALIGN`]-aligned, so
    /// offset alignment implies element alignment), and
    /// [`ViewError::OutOfBounds`] when the window does not fit.
    pub fn new(buf: Arc<AlignedBytes>, offset: usize, len: usize) -> Result<Self, ViewError> {
        let align = std::mem::align_of::<T>();
        if !offset.is_multiple_of(align) {
            return Err(ViewError::Unaligned { offset, align });
        }
        let bytes = len
            .checked_mul(std::mem::size_of::<T>())
            .ok_or(ViewError::OutOfBounds {
                offset,
                bytes: usize::MAX,
                buffer_len: buf.len(),
            })?;
        let end = offset.checked_add(bytes).ok_or(ViewError::OutOfBounds {
            offset,
            bytes,
            buffer_len: buf.len(),
        })?;
        if end > buf.len() {
            return Err(ViewError::OutOfBounds {
                offset,
                bytes,
                buffer_len: buf.len(),
            });
        }
        Ok(TensorView {
            buf,
            offset,
            len,
            _elem: PhantomData,
        })
    }

    /// Number of elements in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The viewed elements.
    #[allow(unsafe_code)]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: construction proved `offset` is aligned for `T` (on a
        // base pointer aligned to BUFFER_ALIGN >= align_of::<T>()) and
        // that `offset + len * size_of::<T>() <= buf.len()`. `T: Scalar`
        // is sealed to padding-free POD types for which every bit pattern
        // is valid, and the buffer is initialized and immutable while
        // shared.
        unsafe {
            let base = self.buf.as_slice().as_ptr().add(self.offset);
            std::slice::from_raw_parts(base.cast::<T>(), self.len)
        }
    }
}

impl<T: Scalar> Clone for TensorView<T> {
    fn clone(&self) -> Self {
        TensorView {
            buf: Arc::clone(&self.buf),
            offset: self.offset,
            len: self.len,
            _elem: PhantomData,
        }
    }
}

impl<T: Scalar> std::fmt::Debug for TensorView<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TensorView")
            .field("elem", &T::NAME)
            .field("offset", &self.offset)
            .field("len", &self.len)
            .finish()
    }
}

/// Copy-on-write parameter storage: owned weights (training, JSON
/// deserialization) or a shared view into an artifact buffer (zero-copy
/// loading). Derefs to `&[T]`; any mutable access first materializes an
/// owned copy, so training a loaded model works transparently while pure
/// inference never copies.
#[derive(Debug, Clone)]
pub enum WeightStore<T: Scalar> {
    /// Heap-owned weights.
    Owned(Vec<T>),
    /// Weights borrowed from a shared artifact buffer.
    Shared(TensorView<T>),
}

impl<T: Scalar> WeightStore<T> {
    /// Wraps an owned vector.
    pub fn from_vec(v: Vec<T>) -> Self {
        WeightStore::Owned(v)
    }

    /// Whether the weights still borrow a shared buffer.
    pub fn is_shared(&self) -> bool {
        matches!(self, WeightStore::Shared(_))
    }

    /// The elements, whichever variant holds them.
    pub fn as_slice(&self) -> &[T] {
        match self {
            WeightStore::Owned(v) => v,
            WeightStore::Shared(view) => view.as_slice(),
        }
    }

    /// Mutable access, copying shared weights to owned first.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.vec_mut().as_mut_slice()
    }

    /// Mutable `Vec` access (resizing callers), copying shared weights to
    /// owned first.
    pub fn vec_mut(&mut self) -> &mut Vec<T> {
        if let WeightStore::Shared(view) = self {
            *self = WeightStore::Owned(view.as_slice().to_vec());
        }
        match self {
            WeightStore::Owned(v) => v,
            WeightStore::Shared(_) => unreachable!("materialized above"),
        }
    }

    /// An owned copy of the elements.
    pub fn to_vec(&self) -> Vec<T> {
        self.as_slice().to_vec()
    }
}

impl<T: Scalar> Default for WeightStore<T> {
    fn default() -> Self {
        WeightStore::Owned(Vec::new())
    }
}

impl<T: Scalar> From<Vec<T>> for WeightStore<T> {
    fn from(v: Vec<T>) -> Self {
        WeightStore::Owned(v)
    }
}

impl<T: Scalar> Deref for WeightStore<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Scalar> DerefMut for WeightStore<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Scalar> PartialEq for WeightStore<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Scalar + Serialize> Serialize for WeightStore<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Scalar + Deserialize> Deserialize for WeightStore<T> {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Vec::<T>::from_value(v).map(WeightStore::Owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_f32(values: &[f32]) -> (Arc<AlignedBytes>, WeightStore<f32>) {
        let mut bytes = Vec::new();
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let buf = Arc::new(AlignedBytes::copy_from(&bytes));
        let view = TensorView::new(Arc::clone(&buf), 0, values.len()).expect("view");
        (buf, WeightStore::Shared(view))
    }

    #[test]
    fn aligned_buffer_is_aligned_and_round_trips() {
        let buf = AlignedBytes::copy_from(&[1, 2, 3, 4, 5]);
        assert_eq!(buf.as_slice(), &[1, 2, 3, 4, 5]);
        assert_eq!(buf.as_slice().as_ptr() as usize % BUFFER_ALIGN, 0);
        assert!(!buf.is_empty());
        let empty = AlignedBytes::zeroed(0);
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
    }

    #[test]
    fn tensor_view_reads_little_endian_f32() {
        let (_buf, store) = shared_f32(&[1.5, -2.25, 0.0, 8.0]);
        assert_eq!(store.as_slice(), &[1.5, -2.25, 0.0, 8.0]);
        assert!(store.is_shared());
    }

    #[test]
    fn view_rejects_unaligned_offset() {
        let buf = Arc::new(AlignedBytes::zeroed(16));
        let err = TensorView::<f32>::new(Arc::clone(&buf), 2, 1).unwrap_err();
        assert!(matches!(
            err,
            ViewError::Unaligned {
                offset: 2,
                align: 4
            }
        ));
    }

    #[test]
    fn view_rejects_out_of_bounds_window() {
        let buf = Arc::new(AlignedBytes::zeroed(16));
        let err = TensorView::<f32>::new(Arc::clone(&buf), 8, 3).unwrap_err();
        assert!(matches!(err, ViewError::OutOfBounds { .. }));
        // Overflowing length must be caught, not wrap.
        let err = TensorView::<f64>::new(buf, 0, usize::MAX / 2).unwrap_err();
        assert!(matches!(err, ViewError::OutOfBounds { .. }));
    }

    #[test]
    fn mutation_copies_shared_to_owned() {
        let (_buf, mut store) = shared_f32(&[1.0, 2.0]);
        store[0] = 9.0;
        assert!(!store.is_shared());
        assert_eq!(store.as_slice(), &[9.0, 2.0]);
    }

    #[test]
    fn shared_and_owned_compare_equal_by_contents() {
        let (_buf, shared) = shared_f32(&[3.0, 4.0]);
        let owned = WeightStore::from_vec(vec![3.0f32, 4.0]);
        assert_eq!(shared, owned);
    }

    #[test]
    fn serde_matches_plain_vec() {
        let (_buf, shared) = shared_f32(&[0.5, -1.0]);
        assert_eq!(shared.to_value(), vec![0.5f32, -1.0].to_value());
        let back = WeightStore::<f32>::from_value(&shared.to_value()).expect("deserialize");
        assert!(!back.is_shared());
        assert_eq!(back, shared);
    }
}
