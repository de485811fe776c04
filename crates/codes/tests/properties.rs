//! Property-based tests of the code-space invariants.

use nanowire_codes::{
    arranged_hot_code, balance_report, balanced_gray_code, gray_code, hot_code,
    reflected_gray_code, reflected_tree_code, tree_code, BalanceBudget, CodeKind, CodeSpec,
    CodeWord, LogicLevel,
};
use proptest::prelude::*;

fn radix_strategy() -> impl Strategy<Value = LogicLevel> {
    prop_oneof![
        Just(LogicLevel::BINARY),
        Just(LogicLevel::TERNARY),
        Just(LogicLevel::QUATERNARY),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The complement of a complement is the original word.
    #[test]
    fn complement_is_involutive(
        radix in radix_strategy(),
        len in 1usize..8,
        seed in any::<u64>(),
    ) {
        let word = arbitrary_word(radix, len, seed);
        prop_assert_eq!(word.complement().complement(), word);
    }

    /// Reflection always yields a word recognised as reflected, and
    /// un-reflection recovers the base word.
    #[test]
    fn reflection_roundtrips(
        radix in radix_strategy(),
        len in 1usize..8,
        seed in any::<u64>(),
    ) {
        let word = arbitrary_word(radix, len, seed);
        let reflected = word.reflected();
        prop_assert!(reflected.is_reflected());
        prop_assert_eq!(reflected.unreflected().unwrap(), word);
    }

    /// Hamming distance is a metric: symmetric, zero iff equal, triangle
    /// inequality.
    #[test]
    fn hamming_distance_is_a_metric(
        radix in radix_strategy(),
        len in 1usize..7,
        seeds in (any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let a = arbitrary_word(radix, len, seeds.0);
        let b = arbitrary_word(radix, len, seeds.1);
        let c = arbitrary_word(radix, len, seeds.2);
        let dab = a.hamming_distance(&b).unwrap();
        let dba = b.hamming_distance(&a).unwrap();
        let dac = a.hamming_distance(&c).unwrap();
        let dcb = c.hamming_distance(&b).unwrap();
        prop_assert_eq!(dab, dba);
        prop_assert_eq!(a.hamming_distance(&a).unwrap(), 0);
        prop_assert!((dab == 0) == (a == b));
        prop_assert!(dab <= dac + dcb);
    }

    /// Index round-trip over the whole tree space.
    #[test]
    fn word_index_roundtrip(
        radix in radix_strategy(),
        len in 1usize..6,
        index_seed in any::<u64>(),
    ) {
        let space = radix.word_count(len);
        let index = u128::from(index_seed) % space;
        let word = CodeWord::from_index(index, len, radix).unwrap();
        prop_assert_eq!(word.to_index(), index);
    }

    /// Gray codes enumerate the full space with exactly one digit change per
    /// step, for every radix and length.
    #[test]
    fn gray_code_invariants(radix in radix_strategy(), len in 1usize..4) {
        let gc = gray_code(radix, len).unwrap();
        prop_assert!(gc.is_gray());
        prop_assert!(gc.all_words_distinct());
        prop_assert_eq!(gc.len() as u128, radix.word_count(len));
    }

    /// The Gray arrangement never has more transitions than the lexicographic
    /// tree order over the same space (Proposition 5 consequence).
    #[test]
    fn gray_no_worse_than_tree(radix in radix_strategy(), len in 1usize..4) {
        let gc = gray_code(radix, len).unwrap();
        let tc = tree_code(radix, len).unwrap();
        prop_assert!(gc.total_transitions() <= tc.total_transitions());
    }

    /// Reflected sequences double both word length and transition counts.
    #[test]
    fn reflection_doubles_transitions(radix in radix_strategy(), len in 1usize..4) {
        let tc = tree_code(radix, len).unwrap();
        let reflected = tc.reflected();
        prop_assert_eq!(reflected.word_length(), 2 * tc.word_length());
        prop_assert_eq!(reflected.total_transitions(), 2 * tc.total_transitions());
    }

    /// Hot codes contain only constant-composition words and are closed under
    /// arrangement (same word multiset): binary codes are arranged by
    /// construction and the others by the distance-2 walk.
    #[test]
    fn hot_code_arrangement_preserves_words(
        (radix, length) in prop_oneof![
            Just((LogicLevel::BINARY, 4usize)),
            Just((LogicLevel::BINARY, 6usize)),
            Just((LogicLevel::TERNARY, 3usize)),
            Just((LogicLevel::TERNARY, 6usize)),
            Just((LogicLevel::QUATERNARY, 4usize)),
        ],
    ) {
        let hc = hot_code(radix, length).unwrap();
        let arranged = arranged_hot_code(radix, length).unwrap();
        nanowire_codes::check_is_permutation(&arranged, hc.words()).unwrap();
        prop_assert!(arranged.total_transitions() <= hc.total_transitions());
    }

    /// Balanced Gray codes are Gray codes whose per-digit spread is no worse
    /// than the standard reflected construction.
    #[test]
    fn balanced_gray_is_no_less_balanced(len in 2usize..5) {
        let bgc = balanced_gray_code(LogicLevel::BINARY, len, BalanceBudget::default()).unwrap();
        let gc = gray_code(LogicLevel::BINARY, len).unwrap();
        prop_assert!(bgc.is_gray());
        prop_assert!(balance_report(&bgc).max <= balance_report(&gc).max);
    }

    /// Any valid code spec generates a sequence whose word length matches the
    /// spec and whose words are all distinct.
    #[test]
    fn code_spec_generation_is_consistent(
        kind in prop_oneof![
            Just(CodeKind::Tree),
            Just(CodeKind::Gray),
            Just(CodeKind::Hot),
        ],
        code_length in prop_oneof![Just(4usize), Just(6usize), Just(8usize)],
    ) {
        if let Ok(spec) = CodeSpec::new(kind, LogicLevel::BINARY, code_length) {
            let seq = spec.generate().unwrap();
            prop_assert_eq!(seq.word_length(), code_length);
            prop_assert!(seq.all_words_distinct());
            prop_assert_eq!(seq.len() as u128, spec.space_size());
        }
    }

    /// Cyclic extension preserves the word length and wraps deterministically.
    #[test]
    fn cyclic_extension_wraps(count in 1usize..70) {
        let gc = reflected_gray_code(LogicLevel::BINARY, 6).unwrap();
        let extended = gc.take_cyclic(count).unwrap();
        prop_assert_eq!(extended.len(), count);
        for i in 0..count {
            prop_assert_eq!(&extended[i], &gc[i % gc.len()]);
        }
    }

    /// Reflected tree codes keep lexicographic ordering of their base halves.
    #[test]
    fn reflected_tree_code_base_order(len in prop_oneof![Just(4usize), Just(6usize), Just(8usize)]) {
        let rtc = reflected_tree_code(LogicLevel::BINARY, len).unwrap();
        let indices: Vec<u128> = rtc
            .iter()
            .map(|w| w.unreflected().unwrap().to_index())
            .collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        prop_assert_eq!(indices, sorted);
    }
}

/// Deterministic pseudo-random word from a seed (no rand dependency needed
/// for word construction; keeps shrinking well-behaved).
fn arbitrary_word(radix: LogicLevel, len: usize, seed: u64) -> CodeWord {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut values = Vec::with_capacity(len);
    for _ in 0..len {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        values.push(((state >> 33) % u64::from(radix.radix())) as u8);
    }
    CodeWord::from_values(&values, radix).expect("digits are reduced modulo radix")
}
