//! Integration test: the qualitative claims of the paper's evaluation
//! (Section 6, Figs. 5–8) hold on the reproduction platform — orderings,
//! trends and crossover locations rather than absolute numbers.

use mspt_experiments::{
    fig5_report, fig6_report, fig7_report, fig8_report, headline_numbers, paper_engine,
};
use nanowire_codes::{CodeKind, LogicLevel};

#[test]
fn fig5_binary_complexity_is_flat_and_gray_cancels_the_higher_radix_overhead() {
    let report = fig5_report(&paper_engine()).unwrap();
    let phi = |kind: CodeKind, radix: LogicLevel| {
        report
            .points
            .iter()
            .find(|p| p.kind == kind && p.radix == radix)
            .unwrap()
            .fabrication_steps
    };
    // Binary: Φ is constant and equal to twice the nanowire count (2 × 10).
    assert_eq!(phi(CodeKind::Tree, LogicLevel::BINARY), 20);
    assert_eq!(phi(CodeKind::Gray, LogicLevel::BINARY), 20);
    // Higher radix costs the tree code extra steps...
    assert!(phi(CodeKind::Tree, LogicLevel::TERNARY) > 20);
    assert!(phi(CodeKind::Tree, LogicLevel::QUATERNARY) > 20);
    // ...and the Gray code removes most of that overhead.
    for radix in [LogicLevel::TERNARY, LogicLevel::QUATERNARY] {
        assert!(phi(CodeKind::Gray, radix) < phi(CodeKind::Tree, radix));
        assert!(
            phi(CodeKind::Gray, radix) <= 22,
            "GC overhead nearly cancelled"
        );
    }
}

#[test]
fn fig6_gray_codes_reduce_and_balance_the_variability() {
    let report = fig6_report().unwrap();
    let map = |kind: CodeKind, length: usize| {
        report
            .maps
            .iter()
            .find(|m| m.kind == kind && m.code_length == length)
            .unwrap()
    };
    for length in [8usize, 10] {
        let tree = map(CodeKind::Tree, length);
        let gray = map(CodeKind::Gray, length);
        let balanced = map(CodeKind::BalancedGray, length);
        // GC and BGC reduce the variability level relative to TC.
        assert!(gray.mean_variability < tree.mean_variability);
        assert!(balanced.mean_variability < tree.mean_variability);
        assert!(gray.max_normalized_sigma < tree.max_normalized_sigma);
        // BGC distributes it at least as evenly as GC (its worst region is no
        // worse).
        assert!(balanced.max_normalized_sigma <= gray.max_normalized_sigma + 1e-9);
    }
    // Longer codes have lower average variability for the same family.
    assert!(map(CodeKind::Tree, 10).mean_variability < map(CodeKind::Tree, 8).mean_variability);
}

#[test]
fn fig7_yield_grows_with_code_length_and_optimised_codes_win() {
    let report = fig7_report(&paper_engine()).unwrap();
    let series = |kind: CodeKind| &report.series.iter().find(|(k, _)| *k == kind).unwrap().1;
    let yield_at = |kind: CodeKind, length: usize| {
        series(kind)
            .iter()
            .find(|p| p.code_length == length)
            .unwrap()
            .crossbar_yield
    };
    // Yield increases with code length over the plotted range for TC and BGC.
    assert!(yield_at(CodeKind::Tree, 10) > yield_at(CodeKind::Tree, 6));
    assert!(yield_at(CodeKind::BalancedGray, 10) > yield_at(CodeKind::BalancedGray, 6));
    // The optimised codes beat their baselines at equal length.
    assert!(yield_at(CodeKind::BalancedGray, 8) > yield_at(CodeKind::Tree, 8));
    assert!(yield_at(CodeKind::ArrangedHot, 8) > yield_at(CodeKind::Hot, 8));
    assert!(yield_at(CodeKind::ArrangedHot, 6) > yield_at(CodeKind::Hot, 6));
    // Hot-code yield saturates around M ≈ 6: the gain from 6 to 8 is small
    // compared with the gain from 4 to 6.
    let hc_4_to_6 = yield_at(CodeKind::Hot, 6) - yield_at(CodeKind::Hot, 4);
    let hc_6_to_8 = yield_at(CodeKind::Hot, 8) - yield_at(CodeKind::Hot, 6);
    assert!(hc_6_to_8 < hc_4_to_6 / 2.0);
    // All yields are physical.
    for (_, points) in &report.series {
        for p in points {
            assert!(p.crossbar_yield > 0.0 && p.crossbar_yield <= 1.0);
        }
    }
}

#[test]
fn fig8_bit_area_shrinks_with_length_and_the_best_code_is_an_optimised_one() {
    let report = fig8_report(&paper_engine()).unwrap();
    let series = |kind: CodeKind| &report.series.iter().find(|(k, _)| *k == kind).unwrap().1;
    let area_at = |kind: CodeKind, length: usize| {
        series(kind)
            .iter()
            .find(|p| p.code_length == length)
            .unwrap()
            .bit_area
    };
    // Tree-family bit area decreases with code length over 6..10.
    for kind in [CodeKind::Tree, CodeKind::Gray, CodeKind::BalancedGray] {
        assert!(area_at(kind, 10) < area_at(kind, 8));
        assert!(area_at(kind, 8) < area_at(kind, 6));
    }
    // BGC is denser than GC, which is denser than TC (at M = 8).
    assert!(area_at(CodeKind::BalancedGray, 8) < area_at(CodeKind::Gray, 8));
    assert!(area_at(CodeKind::Gray, 8) < area_at(CodeKind::Tree, 8));
    // AHC beats HC at M = 6 and the hot families reach their minimum at 6.
    assert!(area_at(CodeKind::ArrangedHot, 6) < area_at(CodeKind::Hot, 6));
    assert!(area_at(CodeKind::ArrangedHot, 6) <= area_at(CodeKind::ArrangedHot, 8));
    // The overall best is an optimised code with a bit area in the paper's
    // ballpark (the paper reports 169 nm² for BGC, 175 nm² for AHC).
    let (kind, _, area) = report.best().unwrap();
    assert!(kind.is_optimised());
    assert!(area > 130.0 && area < 230.0, "best bit area {area} nm²");
}

#[test]
fn headline_numbers_are_in_the_papers_direction_and_ballpark() {
    let headline = headline_numbers(&paper_engine()).unwrap();
    // Directions: every optimisation the paper reports as a gain is a gain.
    assert!(headline.gray_complexity_saving_ternary > 0.0);
    assert!(headline.bgc_variability_reduction > 0.0);
    assert!(headline.tc_yield_gain_6_to_10 > 0.0);
    assert!(headline.bgc_vs_tc_yield_gain_at_8 > 0.0);
    assert!(headline.ahc_vs_hc_yield_gain_at_8 > 0.0);
    assert!(headline.tc_bit_area_saving_6_to_10 > 0.0);
    assert!(headline.ahc_vs_hc_area_saving_at_6 > 0.0);
    // Ballparks (generous factors — the substrate is a simulator, not the
    // authors' calibrated platform).
    assert!(
        headline.gray_complexity_saving_ternary > 0.08
            && headline.gray_complexity_saving_ternary < 0.35
    );
    assert!(headline.tc_yield_gain_6_to_10 > 0.15 && headline.tc_yield_gain_6_to_10 < 0.9);
    assert!(headline.best_bgc_bit_area > 130.0 && headline.best_bgc_bit_area < 230.0);
    assert!(headline.best_ahc_bit_area > 130.0 && headline.best_ahc_bit_area < 260.0);
}
