//! The workspace's one SIMD tier detection.
//!
//! Every dense `f64` kernel with vector bodies (the triangular solves here,
//! the products and epilogues of `vaesa-nn`) dispatches on [`simd_level`],
//! which asks the CPU once per process. The bodies never use FMA, so only
//! the vector width is detected, and every tier gives the scalar bits.

use std::sync::OnceLock;

/// SIMD tier selected once per process from runtime feature detection,
/// ordered from narrowest to widest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar bodies only (also every non-x86 build).
    Scalar,
    /// 256-bit AVX2 bodies.
    Avx2,
    /// 512-bit AVX-512F bodies.
    Avx512,
}

/// The widest tier this CPU supports.
pub fn simd_level() -> SimdLevel {
    static L: OnceLock<SimdLevel> = OnceLock::new();
    *L.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return SimdLevel::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Scalar
    })
}

/// The SIMD capabilities detected on this machine, as a stable `+`-joined
/// string (e.g. `"avx2+avx512f+fma"`), or `"baseline"` when none of the
/// listed features are present (including non-x86 builds).
///
/// Run manifests record this so results and timings can be grouped by the
/// hardware that produced them: a median over records from different
/// machines is meaningless for wall-time gates.
pub fn cpu_features() -> String {
    let mut feats: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            feats.push("avx512f");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            feats.push("fma");
        }
    }
    if feats.is_empty() {
        "baseline".to_string()
    } else {
        feats.join("+")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_features_is_nonempty_and_stable() {
        let a = cpu_features();
        assert!(!a.is_empty());
        assert_eq!(a, cpu_features());
        assert!(a == "baseline" || a.split('+').all(|f| !f.is_empty()));
    }

    #[test]
    fn simd_level_agrees_with_cpu_features() {
        let feats = cpu_features();
        let expect = if feats.contains("avx512f") {
            SimdLevel::Avx512
        } else if feats.contains("avx2") {
            SimdLevel::Avx2
        } else {
            SimdLevel::Scalar
        };
        assert_eq!(simd_level(), expect);
    }
}
