//! The address map of a decoder design: which code word identifies each
//! nanowire of a contact group, and which mesowire voltages must be applied
//! to select it (Fig. 1.c of the paper).

use serde::{Deserialize, Serialize};

use crossbar_array::{apply_address, AddressOutcome};
use decoder_sim::{SimConfig, SimulationPlatform};
use device_physics::Volts;
use nanowire_codes::CodeWord;

use crate::error::{DecoderError, Result};

/// The applied-voltage assignment that selects one nanowire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AddressAssignment {
    /// The nanowire's position within its contact group.
    pub position: usize,
    /// The code word identifying the nanowire.
    pub word: CodeWord,
    /// The voltage to apply on each mesowire (one per doping region).
    pub voltages: Vec<Volts>,
}

/// The address map of one contact group of a decoder design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AddressMap {
    assignments: Vec<AddressAssignment>,
    applied_levels: Vec<Volts>,
}

impl AddressMap {
    /// Builds the address map of one contact group of a design point: one
    /// assignment per word of the configured code.
    ///
    /// The applied voltage for digit value `d` is placed halfway between the
    /// threshold of level `d` and the threshold of level `d + 1` (or half a
    /// level separation above the top level), so that a region with level
    /// `≤ d` conducts and a region with level `> d` does not.
    ///
    /// # Errors
    ///
    /// Propagates code and device-physics errors.
    pub fn for_config(config: &SimConfig) -> Result<Self> {
        let sequence = SimulationPlatform::new(config.clone()).code_sequence()?;
        let ladder = config.doping_ladder()?;
        let levels = ladder.levels();
        let separation = if levels.len() >= 2 {
            levels[1].threshold.value() - levels[0].threshold.value()
        } else {
            0.5
        };
        // Applied level for digit d: midway to the next threshold level.
        let applied_levels: Vec<Volts> = (0..levels.len())
            .map(|d| {
                if d + 1 < levels.len() {
                    Volts::new(
                        0.5 * (levels[d].threshold.value() + levels[d + 1].threshold.value()),
                    )
                } else {
                    Volts::new(levels[d].threshold.value() + 0.5 * separation)
                }
            })
            .collect();

        let assignments = sequence
            .iter()
            .enumerate()
            .map(|(position, word)| AddressAssignment {
                position,
                voltages: word
                    .digits()
                    .iter()
                    .map(|digit| applied_levels[usize::from(digit.value())])
                    .collect(),
                word: word.clone(),
            })
            .collect();
        Ok(AddressMap {
            assignments,
            applied_levels,
        })
    }

    /// The number of addressable nanowires in the group (the code-space
    /// size Ω).
    #[must_use]
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether the map is empty (never true for a built map).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// The applied voltage used for each digit value.
    #[must_use]
    pub fn applied_levels(&self) -> &[Volts] {
        &self.applied_levels
    }

    /// The assignment of a nanowire position within the group.
    ///
    /// # Errors
    ///
    /// Returns [`DecoderError::InvalidAddress`] when the position is outside
    /// the group.
    pub fn assignment(&self, position: usize) -> Result<&AddressAssignment> {
        self.assignments
            .get(position)
            .ok_or_else(|| DecoderError::InvalidAddress {
                reason: format!(
                    "position {position} outside a contact group of {} nanowires",
                    self.assignments.len()
                ),
            })
    }

    /// All assignments in position order.
    #[must_use]
    pub fn assignments(&self) -> &[AddressAssignment] {
        &self.assignments
    }

    /// Simulates applying the voltage pattern of `position` to the whole
    /// group and returns the position that conducts.
    ///
    /// # Errors
    ///
    /// * [`DecoderError::InvalidAddress`] when the position is outside the
    ///   group or the selection is not unique (which would indicate a broken
    ///   code assignment).
    pub fn select(&self, position: usize) -> Result<usize> {
        let target = self.assignment(position)?;
        let words: Vec<CodeWord> = self.assignments.iter().map(|a| a.word.clone()).collect();
        match apply_address(&words, &target.word).map_err(DecoderError::from)? {
            AddressOutcome::Unique(index) => Ok(index),
            AddressOutcome::None => Err(DecoderError::InvalidAddress {
                reason: format!("no nanowire conducts for position {position}"),
            }),
            AddressOutcome::Multiple(indices) => Err(DecoderError::InvalidAddress {
                reason: format!(
                    "positions {indices:?} all conduct for position {position}; the code is not an antichain"
                ),
            }),
        }
    }

    /// Checks that every position selects itself — the end-to-end unique
    /// addressing property of the design.
    ///
    /// # Errors
    ///
    /// Returns [`DecoderError::InvalidAddress`] naming the first position
    /// that fails.
    pub fn verify_unique_addressing(&self) -> Result<()> {
        for position in 0..self.assignments.len() {
            let selected = self.select(position)?;
            if selected != position {
                return Err(DecoderError::InvalidAddress {
                    reason: format!("position {position} selects {selected}"),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

    fn map_for(kind: CodeKind, radix: LogicLevel, length: usize) -> AddressMap {
        let code = CodeSpec::new(kind, radix, length).unwrap();
        AddressMap::for_config(&SimConfig::paper_defaults(code).unwrap()).unwrap()
    }

    #[test]
    fn every_code_family_addresses_uniquely() {
        for (kind, length) in [
            (CodeKind::Tree, 8),
            (CodeKind::Gray, 8),
            (CodeKind::BalancedGray, 8),
            (CodeKind::Hot, 6),
            (CodeKind::ArrangedHot, 6),
        ] {
            let map = map_for(kind, LogicLevel::BINARY, length);
            map.verify_unique_addressing().unwrap();
            assert!(!map.is_empty());
        }
    }

    #[test]
    fn applied_levels_sit_between_threshold_levels() {
        let map = map_for(CodeKind::Gray, LogicLevel::TERNARY, 6);
        let levels = map.applied_levels();
        assert_eq!(levels.len(), 3);
        // Ternary thresholds sit at 1/6, 3/6, 5/6 V; applied levels halfway
        // between successive thresholds and above the top one.
        assert!(levels[0].value() > 1.0 / 6.0 && levels[0].value() < 0.5);
        assert!(levels[1].value() > 0.5 && levels[1].value() < 5.0 / 6.0);
        assert!(levels[2].value() > 5.0 / 6.0);
    }

    #[test]
    fn assignments_carry_one_voltage_per_region() {
        let map = map_for(CodeKind::BalancedGray, LogicLevel::BINARY, 10);
        for assignment in map.assignments() {
            assert_eq!(assignment.voltages.len(), 10);
            assert_eq!(assignment.word.len(), 10);
        }
        assert_eq!(map.len(), 32);
        assert!(map.assignment(0).is_ok());
        assert!(map.assignment(99).is_err());
    }

    #[test]
    fn selection_resolves_to_the_requested_position() {
        let map = map_for(CodeKind::ArrangedHot, LogicLevel::BINARY, 8);
        for position in [0, 7, map.len() - 1] {
            assert_eq!(map.select(position).unwrap(), position);
        }
        assert!(map.select(map.len()).is_err());
    }
}
