//! The CPU's SIMD tier, detected once per process and shared by the dense
//! kernels: the GEMM tile (`gemm`) and the eight-lane distance dots
//! (`distance::lanes8`). [`crate::distance::simd_tier`] names it.
//!
//! Every tier computes the same bits: the kernels write one arithmetic
//! body and only the instructions that carry it change.

use std::sync::OnceLock;

/// An instruction set the dense kernels have a compiled copy for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Isa {
    Avx512,
    Avx,
    Portable,
}

/// An [`Isa`] this CPU offers. The field is private and only [`offer`]
/// makes one, after detecting the features, so a kernel may run a
/// `Tier`'s target-feature copy on the strength of holding it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Tier(Isa);

impl Tier {
    /// The baseline tier, offered everywhere.
    pub(crate) const PORTABLE: Tier = Tier(Isa::Portable);

    pub(crate) fn isa(self) -> Isa {
        self.0
    }

    /// `avx512`, `avx` or `scalar`.
    pub(crate) fn name(self) -> &'static str {
        match self.0 {
            Isa::Avx512 => "avx512",
            Isa::Avx => "avx",
            Isa::Portable => "scalar",
        }
    }
}

/// `Some` when the CPU offers `isa`.
pub(crate) fn offer(isa: Isa) -> Option<Tier> {
    let offered = match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => is_x86_feature_detected!("avx512f"),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx => is_x86_feature_detected!("avx"),
        Isa::Portable => true,
        #[cfg(not(target_arch = "x86_64"))]
        _ => false,
    };
    offered.then_some(Tier(isa))
}

/// The widest tier the CPU offers, detected once per process.
pub(crate) fn tier() -> Tier {
    static TIER: OnceLock<Tier> = OnceLock::new();
    *TIER.get_or_init(|| {
        offer(Isa::Avx512)
            .or_else(|| offer(Isa::Avx))
            .unwrap_or(Tier::PORTABLE)
    })
}
