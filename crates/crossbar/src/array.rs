//! The crossbar array: two orthogonal layers of parallel nanowires organised
//! in caves, sized for a target raw crosspoint capacity (the paper's
//! simulation fixes `D_RAW = 16 kB`).

use serde::{Deserialize, Serialize};

use device_physics::Nanometers;

use crate::error::{CrossbarError, Result};
use crate::geometry::LayoutRules;

/// The raw capacity the paper's simulation platform uses: 16 kB of raw
/// crosspoints (one bit per crosspoint).
pub const PAPER_RAW_BITS: u64 = 16 * 1024 * 8;

/// A square crossbar specification: raw capacity, layout rules and cave
/// organisation.
///
/// # Examples
///
/// ```
/// use crossbar_array::{CrossbarSpec, LayoutRules};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = CrossbarSpec::paper_default()?;
/// assert_eq!(spec.raw_bits(), 16 * 1024 * 8);
/// // A square 16 kB crossbar needs ceil(sqrt(131072)) = 363 nanowires per layer.
/// assert_eq!(spec.nanowires_per_layer(), 363);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrossbarSpec {
    raw_bits: u64,
    nanowires_per_half_cave: usize,
    rules: LayoutRules,
}

impl CrossbarSpec {
    /// Creates a crossbar specification.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidSpec`] when the capacity or the
    /// nanowires per half cave are zero, or when the square array's
    /// crosspoint count ([`CrossbarSpec::raw_crosspoints`]) does not fit a
    /// `u64`.
    pub fn new(raw_bits: u64, nanowires_per_half_cave: usize, rules: LayoutRules) -> Result<Self> {
        if raw_bits == 0 {
            return Err(CrossbarError::InvalidSpec {
                reason: "raw capacity must be at least one bit".to_string(),
            });
        }
        let edge = square_edge(raw_bits) as u64;
        if edge.checked_mul(edge).is_none() {
            return Err(CrossbarError::InvalidSpec {
                reason: format!(
                    "raw capacity {raw_bits} needs {edge} nanowires per layer, \
                     whose square overflows"
                ),
            });
        }
        if nanowires_per_half_cave == 0 {
            return Err(CrossbarError::InvalidSpec {
                reason: "a half cave needs at least one nanowire".to_string(),
            });
        }
        Ok(CrossbarSpec {
            raw_bits,
            nanowires_per_half_cave,
            rules,
        })
    }

    /// The paper's simulation crossbar: 16 kB raw, 40 nanowires per half cave
    /// (the 0.8 µm cave of the MSPT at a 10 nm pitch), paper layout rules.
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept fallible for API consistency.
    pub fn paper_default() -> Result<Self> {
        CrossbarSpec::new(PAPER_RAW_BITS, 40, LayoutRules::paper_default())
    }

    /// The raw crosspoint capacity in bits.
    #[must_use]
    pub fn raw_bits(&self) -> u64 {
        self.raw_bits
    }

    /// The number of nanowires per half cave.
    #[must_use]
    pub fn nanowires_per_half_cave(&self) -> usize {
        self.nanowires_per_half_cave
    }

    /// The layout rules of the crossbar.
    #[must_use]
    pub fn rules(&self) -> &LayoutRules {
        &self.rules
    }

    /// The number of nanowires each layer needs for a square crossbar:
    /// `ceil(sqrt(raw_bits))`.
    #[must_use]
    pub fn nanowires_per_layer(&self) -> usize {
        square_edge(self.raw_bits)
    }

    /// The number of caves per layer (each cave holds two half caves).
    #[must_use]
    pub fn caves_per_layer(&self) -> usize {
        self.nanowires_per_layer()
            .div_ceil(2 * self.nanowires_per_half_cave)
    }

    /// The number of half caves per layer.
    #[must_use]
    pub fn half_caves_per_layer(&self) -> usize {
        2 * self.caves_per_layer()
    }

    /// The actual raw crosspoint count of the square array
    /// (`nanowires_per_layer²`), which may slightly exceed `raw_bits` because
    /// of rounding to whole nanowires.
    #[must_use]
    pub fn raw_crosspoints(&self) -> u64 {
        let w = self.nanowires_per_layer() as u64;
        w * w
    }

    /// The width of the nanowire core of one layer (nanowire count × pitch).
    #[must_use]
    pub fn core_width(&self) -> Nanometers {
        self.rules.nanowire_pitch() * self.nanowires_per_layer() as f64
    }
}

/// The edge of the smallest square array holding `raw_bits` crosspoints:
/// `ceil(sqrt(raw_bits))`.
fn square_edge(raw_bits: u64) -> usize {
    (raw_bits as f64).sqrt().ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_inputs() {
        assert!(CrossbarSpec::new(0, 40, LayoutRules::paper_default()).is_err());
        assert!(CrossbarSpec::new(1024, 0, LayoutRules::paper_default()).is_err());
        assert!(CrossbarSpec::new(1024, 40, LayoutRules::paper_default()).is_ok());
    }

    #[test]
    fn capacities_whose_square_overflows_are_rejected() {
        let rules = LayoutRules::paper_default();
        // u64::MAX needs a 2^32 edge, whose square wraps.
        assert!(matches!(
            CrossbarSpec::new(u64::MAX, 40, rules),
            Err(CrossbarError::InvalidSpec { .. })
        ));
        // The largest square that fits still builds and squares exactly.
        let edge = u64::from(u32::MAX);
        let spec = CrossbarSpec::new(edge * edge, 40, rules).unwrap();
        assert_eq!(spec.raw_crosspoints(), edge * edge);
    }

    #[test]
    fn paper_default_dimensions() {
        let spec = CrossbarSpec::paper_default().unwrap();
        assert_eq!(spec.raw_bits(), 131_072);
        assert_eq!(spec.nanowires_per_layer(), 363);
        assert_eq!(spec.nanowires_per_half_cave(), 40);
        // 363 nanowires / 80 per cave -> 5 caves.
        assert_eq!(spec.caves_per_layer(), 5);
        assert_eq!(spec.half_caves_per_layer(), 10);
        assert!(spec.raw_crosspoints() >= spec.raw_bits());
        assert_eq!(spec.core_width().value(), 3630.0);
    }

    #[test]
    fn small_crossbar_dimensions() {
        let spec = CrossbarSpec::new(1024, 16, LayoutRules::paper_default()).unwrap();
        assert_eq!(spec.nanowires_per_layer(), 32);
        assert_eq!(spec.caves_per_layer(), 1);
        assert_eq!(spec.raw_crosspoints(), 1024);
    }
}
