//! The AVX-512 trampoline (x86_64, runtime-detected).
//!
//! [`super::Backend::Avx512`] has no kernel body of its own. Every
//! kernel but the Box–Muller block runs its AVX2 code in
//! [`super::avx2`]; the block runs the safe source in `super::normal`
//! eight draws wide inside [`compiled`], where LLVM vectorizes it for
//! AVX-512.

/// Runs `f` with AVX-512F and AVX-512DQ enabled: a safe body inlined
/// into `f` is vectorized for this backend, with the same IEEE
/// operations in the same order (see [`super::avx2`]'s module docs).
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512DQ. The only caller is
/// the dispatcher in [`super`], which reaches this function
/// exclusively through a [`super::Backend::Avx512`] value, and
/// `Backend::Avx512` is only ever constructed after
/// `is_x86_feature_detected!` returned true for AVX2, AVX-512F and
/// AVX-512DQ (at env resolution or via the availability assert in
/// [`super::with_backend`]).
#[target_feature(enable = "avx512f,avx512dq")]
pub(crate) unsafe fn compiled<R>(f: impl FnOnce() -> R) -> R {
    f()
}
