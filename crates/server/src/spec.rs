//! Textual parameter specs shared by every user-facing surface.
//!
//! The CLI flags (`--noise bitflip:1e-4`, `--method adaptive`) and the
//! server's JSON fields (`"noise":"bitflip:1e-4"`, `"method":"adaptive"`)
//! speak the same little languages; this module is their single parser so
//! the two surfaces can never drift apart.

use gleipnir_core::{AdaptiveConfig, Method, TierPolicy};
use gleipnir_noise::NoiseModel;
use gleipnir_sim::BasisState;

/// The default noise spec applied when none is given.
pub const DEFAULT_NOISE_SPEC: &str = "bitflip:1e-4";

/// The default MPS width when none is given.
pub const DEFAULT_WIDTH: usize = 32;

/// Parses a noise spec: `bitflip:P`, `depolarizing:P1,P2`, `ampdamp:G`, or
/// `none`.
///
/// # Errors
///
/// A human-readable message naming the offending spec.
pub fn parse_noise_spec(spec: &str) -> Result<NoiseModel, String> {
    if spec == "none" {
        return Ok(NoiseModel::Noiseless);
    }
    if let Some(p) = spec.strip_prefix("bitflip:") {
        let p: f64 = p
            .parse()
            .map_err(|_| format!("bad probability in `{spec}`"))?;
        return Ok(NoiseModel::uniform_bit_flip(p));
    }
    if let Some(g) = spec.strip_prefix("ampdamp:") {
        let g: f64 = g.parse().map_err(|_| format!("bad rate in `{spec}`"))?;
        return Ok(NoiseModel::uniform_amplitude_damping(g));
    }
    if let Some(ps) = spec.strip_prefix("depolarizing:") {
        let parts: Vec<&str> = ps.split(',').collect();
        if parts.len() != 2 {
            return Err(format!("depolarizing needs two rates, got `{spec}`"));
        }
        let p1: f64 = parts[0]
            .parse()
            .map_err(|_| format!("bad rate in `{spec}`"))?;
        let p2: f64 = parts[1]
            .parse()
            .map_err(|_| format!("bad rate in `{spec}`"))?;
        return Ok(NoiseModel::uniform_depolarizing(p1, p2));
    }
    Err(format!("unknown noise spec `{spec}`"))
}

/// Parses a method name (`state` | `adaptive` | `worst` | `lqr`; `None`
/// defaults to `state`) at the given MPS width.
///
/// # Errors
///
/// A message naming the unknown method.
pub fn parse_method_spec(name: Option<&str>, width: usize) -> Result<Method, String> {
    match name {
        None | Some("state") => Ok(Method::StateAware { mps_width: width }),
        Some("adaptive") => Ok(Method::Adaptive(AdaptiveConfig {
            max_width: width.max(2),
            ..AdaptiveConfig::default()
        })),
        Some("worst") => Ok(Method::WorstCase),
        Some("lqr") => Ok(Method::LqrFullSim),
        Some(other) => Err(format!(
            "unknown method `{other}` (expected state|adaptive|worst|lqr)"
        )),
    }
}

/// Parses a tier-policy spec: `exact` (default — cold SDP solves only,
/// bit-identical to the pre-tiering engine) or `fast` (Tier 0 closed forms
/// where provable). `None` defaults to `exact`.
///
/// # Errors
///
/// A message naming the unknown policy.
pub fn parse_tier_spec(name: Option<&str>) -> Result<TierPolicy, String> {
    match name {
        None | Some("exact") => Ok(TierPolicy::Exact),
        Some("fast") => Ok(TierPolicy::Fast),
        Some(other) => Err(format!(
            "unknown tier policy `{other}` (expected exact|fast)"
        )),
    }
}

/// Parses an input bit string (`"0101"`) for an `n`-qubit program.
///
/// # Errors
///
/// A message giving the expected width.
pub fn parse_input_bits(bits: &str, n: usize) -> Result<BasisState, String> {
    if bits.len() != n || !bits.chars().all(|c| c == '0' || c == '1') {
        return Err(format!("input must be {n} binary digits, got `{bits}`"));
    }
    Ok(BasisState::from_bits(
        &bits.chars().map(|c| c == '1').collect::<Vec<_>>(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_specs_round_trip() {
        assert!(matches!(
            parse_noise_spec("none").unwrap(),
            NoiseModel::Noiseless
        ));
        parse_noise_spec("bitflip:1e-4").unwrap();
        parse_noise_spec("depolarizing:1e-4,2e-4").unwrap();
        assert!(matches!(
            parse_noise_spec("ampdamp:0.01").unwrap(),
            NoiseModel::UniformAmplitudeDamping { .. }
        ));
        for bad in ["bitflip:x", "depolarizing:1", "ampdamp:x", "gauss:1", ""] {
            assert!(parse_noise_spec(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn tier_specs() {
        assert_eq!(parse_tier_spec(None).unwrap(), TierPolicy::Exact);
        assert_eq!(parse_tier_spec(Some("exact")).unwrap(), TierPolicy::Exact);
        assert_eq!(parse_tier_spec(Some("fast")).unwrap(), TierPolicy::Fast);
        for gone in ["closed", "warm", "turbo"] {
            let err = parse_tier_spec(Some(gone)).unwrap_err();
            assert!(err.contains("unknown tier policy"), "{gone}: {err}");
        }
    }

    #[test]
    fn method_specs() {
        assert!(matches!(
            parse_method_spec(None, 8).unwrap(),
            Method::StateAware { mps_width: 8 }
        ));
        assert!(matches!(
            parse_method_spec(Some("worst"), 8).unwrap(),
            Method::WorstCase
        ));
        assert!(parse_method_spec(Some("quantum"), 8).is_err());
    }

    #[test]
    fn input_bits() {
        assert!(parse_input_bits("010", 3).is_ok());
        assert!(parse_input_bits("01", 3).is_err());
        assert!(parse_input_bits("012", 3).is_err());
    }
}
