//! Code words pinned: the cyclic generator against the full sequence, the
//! words of every code the design catalogue and the paper's figures use and
//! of every arranged hot code walked above binary, every admitted arranged
//! hot code's distance-2 order, and two balanced-Gray searches word for
//! word, one that finds a balanced path and one that exhausts its budget and
//! falls back to the Gray code.
//!
//! The digests were generated before the cyclic generator and the
//! allocation-free searches landed, and those of ternary M = 3, radix-5
//! M = 5, radix-6 M = 6 and binary M = 12 AHC before the walk replaced the
//! backtracking search, so they pin that none of these changes a word.

use nanowire_codes::{
    balance_report, balanced_gray_code, check_is_permutation, gray_code, hot_code, BalanceBudget,
    CodeBudgets, CodeError, CodeKind, CodeSequence, CodeSpec, LogicLevel, MAX_ARRANGED_WORDS,
    MAX_ENUMERATED_WORDS, MAX_RADIX, MIN_RADIX,
};

fn fnv1a(hash: u64, byte: u8) -> u64 {
    (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
}

/// FNV-1a over every word's digits, each word closed by `0xff`.
fn digest(sequence: &CodeSequence) -> u64 {
    sequence
        .words()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |hash, word| {
            let hash = word
                .digits()
                .iter()
                .fold(hash, |hash, digit| fnv1a(hash, digit.value()));
            fnv1a(hash, 0xff)
        })
}

fn spec(kind: CodeKind, radix: u8, length: usize) -> CodeSpec {
    CodeSpec::new(kind, LogicLevel::new(radix).unwrap(), length).unwrap()
}

#[test]
fn the_cyclic_generator_equals_the_cyclic_extension() {
    let budgets = CodeBudgets::default();
    for kind in CodeKind::ALL {
        for radix in 2..=4u8 {
            for length in 1..=10 {
                let Ok(spec) = CodeSpec::new(kind, LogicLevel::new(radix).unwrap(), length) else {
                    continue;
                };
                // Balanced searches past 64 words exhaust their budget,
                // which takes seconds; the searched families past 1,024
                // words are refused.
                if kind == CodeKind::BalancedGray && (65..=1_024).contains(&spec.space_size()) {
                    continue;
                }
                let full = match spec.generate_with(budgets) {
                    Ok(full) => full,
                    Err(error) => {
                        assert_eq!(spec.generate_cyclic(budgets, 1), Err(error), "{spec}");
                        continue;
                    }
                };
                let omega = full.len();
                for count in [0, 1, omega - 1, omega, omega + 1, 3 * omega + 2] {
                    assert_eq!(
                        spec.generate_cyclic(budgets, count),
                        full.take_cyclic(count),
                        "{spec} at {count} words"
                    );
                }
            }
        }
    }
}

#[test]
fn the_cyclic_generator_refuses_what_generation_refuses() {
    // 2²¹, 3¹³ and 4¹¹ tree words and C(24, 12) binary hot words: all past
    // the enumeration bound, so neither path builds a word.
    let budgets = CodeBudgets::default();
    for spec in [
        spec(CodeKind::Tree, 2, 42),
        spec(CodeKind::Gray, 3, 26),
        spec(CodeKind::Tree, 4, 22),
        spec(CodeKind::Hot, 2, 24),
    ] {
        assert!(spec.space_size() > MAX_ENUMERATED_WORDS, "{spec}");
        for count in [0, 1, 5] {
            let cyclic = spec.generate_cyclic(budgets, count);
            assert!(
                matches!(cyclic, Err(CodeError::SpaceTooLarge { .. })),
                "{spec}"
            );
            assert_eq!(
                cyclic,
                spec.generate_with(budgets)
                    .and_then(|full| full.take_cyclic(count)),
                "{spec} at {count} words"
            );
        }
    }
}

/// Every code of the design catalogue (perfbench's `CODE_POINTS`) and of
/// the figures (Fig. 5: TC and GC at M = 8 in radices 2–4; Figs. 6–8:
/// binary TC, GC and BGC at M = 6, 8, 10 and HC and AHC at M = 4, 6, 8, 10),
/// every arranged hot code above binary that the arrangement bound admits,
/// and the largest binary one, with the digest of its full sequence under
/// the default budgets.
const PINNED_WORDS: &[(CodeKind, u8, usize, u64)] = &[
    (CodeKind::Tree, 2, 4, 0xaa409b8beba56f25),
    (CodeKind::Tree, 2, 6, 0xf7ba82531151ea3d),
    (CodeKind::Tree, 2, 8, 0x32a9b6d3d2804525),
    (CodeKind::Tree, 2, 10, 0xa81f96f279d4f785),
    (CodeKind::Tree, 3, 4, 0xa8bd00e354b937ba),
    (CodeKind::Tree, 3, 6, 0x0b5889cc6918a28e),
    (CodeKind::Tree, 3, 8, 0x2dd001d73cb0c986),
    (CodeKind::Tree, 3, 10, 0x5e92145de9b8c7ca),
    (CodeKind::Tree, 4, 4, 0x1210631fa35ed9e5),
    (CodeKind::Tree, 4, 6, 0x636f3a33f51fc925),
    (CodeKind::Tree, 4, 8, 0x6ba5ddf6d8382b25),
    (CodeKind::Gray, 2, 4, 0xe1b5de9663bb98f5),
    (CodeKind::Gray, 2, 6, 0x82151d0bf6d383dd),
    (CodeKind::Gray, 2, 8, 0x61a672dfd0ed09e5),
    (CodeKind::Gray, 2, 10, 0xd101da4c1c066705),
    (CodeKind::Gray, 3, 4, 0x323500bdee9c729a),
    (CodeKind::Gray, 3, 6, 0x234bd0fa3c2e703e),
    (CodeKind::Gray, 3, 8, 0x4becf5184dcc1406),
    (CodeKind::Gray, 3, 10, 0x17409b53e59f554a),
    (CodeKind::Gray, 4, 4, 0xa7293c9c7cf1fcc5),
    (CodeKind::Gray, 4, 6, 0x43a976b79177c965),
    (CodeKind::Gray, 4, 8, 0xe0963301d58f0625),
    (CodeKind::BalancedGray, 2, 4, 0x3022d336c98f8755),
    (CodeKind::BalancedGray, 2, 6, 0xfa1171d828d787bd),
    (CodeKind::BalancedGray, 2, 8, 0xc080e4ffcb1231e5),
    (CodeKind::BalancedGray, 2, 10, 0x765e9ebaf068a025),
    (CodeKind::BalancedGray, 3, 4, 0x6587afa5cf37969e),
    (CodeKind::BalancedGray, 3, 6, 0x080afa838fdea8ae),
    (CodeKind::Hot, 2, 4, 0xfa8084cac050dcab),
    (CodeKind::Hot, 2, 6, 0xb842be38c6b5a379),
    (CodeKind::Hot, 2, 8, 0x47c844b1afe99587),
    (CodeKind::Hot, 2, 10, 0x5d6c2ca8dfa17481),
    (CodeKind::Hot, 3, 6, 0xd24b7ada73ffe8e7),
    (CodeKind::Hot, 3, 9, 0xafd097369bdae23d),
    (CodeKind::Hot, 4, 4, 0x9bf9d1044f608a6d),
    (CodeKind::Hot, 4, 8, 0x0db786c59ba0af55),
    (CodeKind::ArrangedHot, 2, 4, 0x13847c3b67975177),
    (CodeKind::ArrangedHot, 2, 6, 0x3c5df4c1b9187271),
    (CodeKind::ArrangedHot, 2, 8, 0x5e606965e4a12e7f),
    (CodeKind::ArrangedHot, 2, 10, 0xd3f10ec9c17e5141),
    (CodeKind::ArrangedHot, 2, 12, 0xa1ac576bb67bac09),
    (CodeKind::ArrangedHot, 3, 3, 0xd20a8394f96ee13d),
    (CodeKind::ArrangedHot, 3, 6, 0x8eb6b30000794933),
    (CodeKind::ArrangedHot, 4, 4, 0x6d08eef2f57d60a5),
    (CodeKind::ArrangedHot, 5, 5, 0xb5fa6098260727f5),
    (CodeKind::ArrangedHot, 6, 6, 0xf47a667ce636c5c5),
];

#[test]
fn catalogue_and_figure_codes_keep_their_words() {
    for &(kind, radix, length, pinned) in PINNED_WORDS {
        let spec = spec(kind, radix, length);
        let words = digest(&spec.generate().unwrap());
        assert_eq!(
            words, pinned,
            "{spec}: digest {words:016x}, pinned {pinned:016x}"
        );
    }
}

/// Every arranged hot code `CodeSpec` admits within the arrangement bound
/// steps through its whole hot space changing two digits per step.
#[test]
fn every_admitted_arranged_hot_code_has_distance_two() {
    let mut admitted = Vec::new();
    for radix in MIN_RADIX..=MAX_RADIX {
        let level = LogicLevel::new(radix).unwrap();
        for length in 1.. {
            let Ok(spec) = CodeSpec::new(CodeKind::ArrangedHot, level, length) else {
                continue;
            };
            // Hot spaces grow with the length, so no longer one is admitted.
            if spec.space_size() > MAX_ARRANGED_WORDS {
                break;
            }
            let ahc = spec.generate().unwrap();
            assert!(ahc.has_uniform_distance(2), "{spec}");
            check_is_permutation(&ahc, hot_code(level, length).unwrap().words()).unwrap();
            admitted.push((radix, length));
        }
    }
    // From radix 7 on, even M = n has n! > 1,024 words.
    assert_eq!(
        admitted,
        [
            (2, 2),
            (2, 4),
            (2, 6),
            (2, 8),
            (2, 10),
            (2, 12),
            (3, 3),
            (3, 6),
            (4, 4),
            (5, 5),
            (6, 6),
        ]
    );
}

#[test]
fn a_succeeding_balanced_search_is_pinned_word_for_word() {
    // Binary, five digits: the base half of the paper's M = 10 BGC.
    let bgc = balanced_gray_code(LogicLevel::BINARY, 5, BalanceBudget::default()).unwrap();
    let words: Vec<String> = bgc.iter().map(ToString::to_string).collect();
    assert_eq!(words, PINNED_BGC_BINARY_5);
    assert_eq!(balance_report(&bgc).max, 7);
}

const PINNED_BGC_BINARY_5: [&str; 32] = [
    "00000", "10000", "11000", "11100", "11110", "11111", "01111", "00111", "00011", "00001",
    "10001", "11001", "11101", "01101", "01100", "01110", "00110", "00010", "01010", "01000",
    "01001", "01011", "11011", "11010", "10010", "10110", "10100", "00100", "00101", "10101",
    "10111", "10011",
];

/// Expands 20 M search nodes: about 1.5 s in a release build, 20 s in a
/// debug one, so CI runs it under `--release`.
#[test]
#[cfg_attr(debug_assertions, ignore = "20 M search nodes; run under --release")]
fn an_exhausting_balanced_search_is_pinned_word_for_word() {
    // Binary, eight digits: all five per-digit limits exhaust their 4 M
    // nodes, and the search returns the reflected Gray code.
    let bgc = balanced_gray_code(LogicLevel::BINARY, 8, BalanceBudget::default()).unwrap();
    assert_eq!(bgc, gray_code(LogicLevel::BINARY, 8).unwrap());
    assert_eq!(digest(&bgc), PINNED_BGC_BINARY_8);
}

const PINNED_BGC_BINARY_8: u64 = 0xb087002db5a29a25;
