//! Caves and half caves: the lithographically defined trenches in which the
//! MSPT grows its nanowires. The multi-spacer stack is symmetric about the
//! cave axis, so unique addressing inside one *half* cave implies unique
//! addressing of the whole array (Section 3.3) — every analysis in the
//! workspace therefore operates on half caves.

use serde::{Deserialize, Serialize};

use mspt_fabrication::PatternMatrix;
use nanowire_codes::CodeSequence;

use crate::error::{CrossbarError, Result};

/// One half cave: `N` nanowires, each carrying an `M`-region pattern assigned
/// from a code sequence.
///
/// The code sequence is applied cyclically: nanowire `i` receives word
/// `i mod Ω`, so each contact group of `Ω` nanowires sees every code word
/// exactly once.
///
/// # Examples
///
/// ```
/// use crossbar_array::HalfCave;
/// use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let code = CodeSpec::new(CodeKind::Gray, LogicLevel::BINARY, 8)?.generate()?;
/// let half_cave = HalfCave::new(20, &code)?;
/// assert_eq!(half_cave.nanowire_count(), 20);
/// assert_eq!(half_cave.region_count(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HalfCave {
    nanowire_count: usize,
    assignment: CodeSequence,
}

impl HalfCave {
    /// Creates a half cave of `nanowire_count` nanowires patterned with the
    /// cyclic extension of `code`.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidSpec`] when `nanowire_count` is zero,
    /// or propagates code errors from the cyclic extension.
    pub fn new(nanowire_count: usize, code: &CodeSequence) -> Result<Self> {
        if nanowire_count == 0 {
            return Err(CrossbarError::InvalidSpec {
                reason: "a half cave needs at least one nanowire".to_string(),
            });
        }
        Ok(HalfCave {
            nanowire_count,
            assignment: code.take_cyclic(nanowire_count)?,
        })
    }

    /// A half cave whose nanowire `i` carries word `i` of `assignment`: the
    /// same half cave as `HalfCave::new(assignment.len(), &code)` when
    /// `assignment` is the cyclic extension of `code`, as
    /// [`CodeSpec::generate_cyclic`](nanowire_codes::CodeSpec::generate_cyclic)
    /// builds it.
    #[must_use]
    pub fn from_assignment(assignment: CodeSequence) -> Self {
        HalfCave {
            nanowire_count: assignment.len(),
            assignment,
        }
    }

    /// The number of nanowires `N`.
    #[must_use]
    pub fn nanowire_count(&self) -> usize {
        self.nanowire_count
    }

    /// The number of doping regions `M` per nanowire.
    #[must_use]
    pub fn region_count(&self) -> usize {
        self.assignment.word_length()
    }

    /// The code word assigned to every nanowire, in definition order.
    #[must_use]
    pub fn assignment(&self) -> &CodeSequence {
        &self.assignment
    }

    /// The pattern matrix `P` of the half cave (the object the fabrication
    /// model consumes).
    ///
    /// # Errors
    ///
    /// Propagates fabrication-layer construction errors (cannot occur for a
    /// constructed half cave).
    pub fn pattern(&self) -> Result<PatternMatrix> {
        Ok(PatternMatrix::from_sequence(&self.assignment)?)
    }
}

/// A full cave: two mirror-image half caves sharing the sacrificial-layer
/// axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cave {
    half: HalfCave,
}

impl Cave {
    /// Creates a cave from the half-cave description (both halves are
    /// identical up to mirroring).
    #[must_use]
    pub fn from_half(half: HalfCave) -> Self {
        Cave { half }
    }

    /// One half of the cave.
    #[must_use]
    pub fn half(&self) -> &HalfCave {
        &self.half
    }

    /// Total nanowires in the cave (both halves).
    #[must_use]
    pub fn nanowire_count(&self) -> usize {
        2 * self.half.nanowire_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

    fn gray_code() -> CodeSequence {
        CodeSpec::new(CodeKind::Gray, LogicLevel::BINARY, 6)
            .unwrap()
            .generate()
            .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let code = gray_code();
        let half = HalfCave::new(20, &code).unwrap();
        assert_eq!(half.nanowire_count(), 20);
        assert_eq!(half.region_count(), 6);
        assert_eq!(half.assignment().len(), 20);
        assert!(HalfCave::new(0, &code).is_err());
    }

    #[test]
    fn assignment_wraps_cyclically() {
        let code = gray_code(); // 8 words
        let half = HalfCave::new(20, &code).unwrap();
        assert_eq!(half.assignment()[8], code[0]);
        assert_eq!(half.assignment()[19], code[3]);
    }

    #[test]
    fn an_explicit_assignment_is_the_cyclic_half_cave() {
        let code = gray_code();
        let cyclic = HalfCave::from_assignment(code.take_cyclic(20).unwrap());
        assert_eq!(cyclic, HalfCave::new(20, &code).unwrap());
    }

    #[test]
    fn pattern_matrix_matches_the_assignment() {
        let code = gray_code();
        let half = HalfCave::new(12, &code).unwrap();
        let pattern = half.pattern().unwrap();
        assert_eq!(pattern.nanowire_count(), 12);
        assert_eq!(pattern.region_count(), 6);
        assert_eq!(
            pattern.nanowire_word(3).unwrap().to_string(),
            code[3].to_string()
        );
    }

    #[test]
    fn cave_doubles_the_half() {
        let half = HalfCave::new(10, &gray_code()).unwrap();
        let cave = Cave::from_half(half.clone());
        assert_eq!(cave.nanowire_count(), 20);
        assert_eq!(cave.half(), &half);
    }
}
