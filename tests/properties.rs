//! Property-based tests over the workspace's core invariants.

use human_computation::core::text::{fuzzy_agree, levenshtein, normalize_label, similarity};
use human_computation::prelude::*;
use proptest::prelude::*;

proptest! {
    // ---------- text ----------

    #[test]
    fn normalization_is_idempotent(s in ".{0,40}") {
        let once = normalize_label(&s);
        prop_assert_eq!(normalize_label(&once), once);
    }

    #[test]
    fn normalized_labels_are_lowercase_single_spaced(s in ".{0,40}") {
        let n = normalize_label(&s);
        prop_assert!(!n.contains("  "));
        prop_assert!(!n.starts_with(' ') && !n.ends_with(' '));
        // Only alphanumerics and single spaces survive, with no ASCII
        // uppercase (exotic caseless scripts are allowed through).
        prop_assert!(n.chars().all(|c| c.is_alphanumeric() || c == ' '));
        prop_assert!(!n.chars().any(|c| c.is_ascii_uppercase()));
    }

    #[test]
    fn levenshtein_is_a_metric(a in "[a-z]{0,12}", b in "[a-z]{0,12}", c in "[a-z]{0,12}") {
        // identity
        prop_assert_eq!(levenshtein(&a, &a), 0);
        // symmetry
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        // triangle inequality
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        // bounded by longer length
        prop_assert!(levenshtein(&a, &b) <= a.len().max(b.len()));
    }

    #[test]
    fn similarity_is_bounded(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
        let s = similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn fuzzy_agree_is_monotone_in_tolerance(a in "[a-z]{1,10}", b in "[a-z]{1,10}", k in 0usize..4) {
        if fuzzy_agree(&a, &b, k) {
            prop_assert!(fuzzy_agree(&a, &b, k + 1));
        }
    }

    // ---------- sim kernel ----------

    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = hc_queue(&times);
        let mut last = None;
        while let Some((t, _)) = q.pop() {
            if let Some(prev) = last {
                prop_assert!(t >= prev);
            }
            last = Some(t);
        }
    }

    #[test]
    fn sim_time_arithmetic_never_underflows(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let ta = SimTime::from_ticks(a);
        let tb = SimTime::from_ticks(b);
        let d = ta - tb;
        prop_assert_eq!(d.ticks(), a.saturating_sub(b));
    }

    #[test]
    fn online_stats_match_two_pass(values in prop::collection::vec(-1e6f64..1e6, 1..100)) {
        let mut s = OnlineStats::new();
        for &v in &values {
            s.push(v);
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert_eq!(s.count(), values.len() as u64);
    }

    // ---------- verification ----------

    #[test]
    fn agreement_promotion_is_monotone_in_support(
        threshold in 1u32..6,
        pairs in prop::collection::vec((0u64..50, 50u64..100), 1..40),
    ) {
        let mut tracker = AgreementTracker::new(threshold);
        let task = TaskId::new(1);
        let label = Label::new("x");
        let mut promoted_at = None;
        for (i, (a, b)) in pairs.iter().enumerate() {
            let newly = tracker.record(task, label.clone(), PlayerId::new(*a), PlayerId::new(*b));
            if newly {
                prop_assert!(promoted_at.is_none(), "promoted twice");
                promoted_at = Some(i);
                prop_assert!(tracker.support(task, &label) >= threshold);
            }
        }
        // Once promoted, stays promoted.
        if promoted_at.is_some() {
            prop_assert!(tracker.is_promoted(task, &label));
        } else {
            prop_assert!(tracker.support(task, &label) < threshold);
        }
    }

    #[test]
    fn taboo_list_contains_what_was_inserted(words in prop::collection::vec("[a-z]{1,8}", 0..20)) {
        let mut list = TabooList::new();
        for w in &words {
            list.insert(Label::new(w));
        }
        for w in &words {
            prop_assert!(list.contains(&Label::new(w)));
            prop_assert!(list.contains(&Label::new(&w.to_uppercase())));
        }
    }

    // ---------- scoring ----------

    #[test]
    fn round_scores_are_bounded_and_participation_paid(
        matched in any::<bool>(),
        secs in 0.0f64..400.0,
        streak in 0u32..1000,
    ) {
        let rule = ScoreRule::default();
        let pts = rule.round_score(matched, secs, streak);
        prop_assert!(pts >= rule.round_points);
        let max = rule.round_points + rule.match_points + rule.max_streak_bonus + rule.fast_bonus;
        prop_assert!(pts <= max);
        if !matched {
            prop_assert_eq!(pts, rule.round_points);
        }
    }

    // ---------- output-agreement round ----------

    #[test]
    fn rounds_terminate_exactly_once(
        guesses in prop::collection::vec(("[a-z]{1,6}", any::<bool>()), 1..30),
    ) {
        let mut round = OutputAgreementRound::new(
            TaskId::new(1),
            TabooList::default(),
            SimDuration::from_secs(1_000),
        );
        let mut terminal_seen = false;
        for (i, (word, left)) in guesses.iter().enumerate() {
            let seat = if *left { Seat::Left } else { Seat::Right };
            let at = SimTime::from_secs(i as u64);
            let outcome = round.submit(seat, Answer::text(word), at);
            if terminal_seen {
                prop_assert_eq!(outcome, SubmitOutcome::RoundOver);
            } else if outcome.is_terminal() {
                terminal_seen = true;
                prop_assert!(round.is_over());
            }
        }
        // finish() is always safe and consistent with the match state.
        let result = round.finish(SimTime::from_secs(2_000));
        prop_assert_eq!(result.is_match(), result.agreed_label.is_some());
    }

    #[test]
    fn matched_label_was_guessed_by_both_seats(
        left in prop::collection::vec("[a-d]{1,2}", 1..8),
        right in prop::collection::vec("[a-d]{1,2}", 1..8),
    ) {
        let mut round = OutputAgreementRound::new(
            TaskId::new(1),
            TabooList::default(),
            SimDuration::from_secs(1_000),
        );
        let mut t = 0u64;
        for w in &left {
            round.submit(Seat::Left, Answer::text(w), SimTime::from_secs(t));
            t += 1;
        }
        for w in &right {
            round.submit(Seat::Right, Answer::text(w), SimTime::from_secs(t));
            t += 1;
        }
        let result = round.finish(SimTime::from_secs(t));
        if let Some(agreed) = &result.agreed_label {
            let norm_left: Vec<String> = left.iter().map(|w| normalize_label(w)).collect();
            let norm_right: Vec<String> = right.iter().map(|w| normalize_label(w)).collect();
            prop_assert!(norm_left.contains(&agreed.as_str().to_string()));
            prop_assert!(norm_right.contains(&agreed.as_str().to_string()));
        }
    }

    // ---------- metrics ----------

    #[test]
    fn contribution_identity_holds(
        plays in prop::collection::vec((0u64..100, 1u64..10_000), 1..30),
        outputs in 0u64..100_000,
    ) {
        let mut ledger = ContributionLedger::new();
        for (player, secs) in &plays {
            ledger.record_play(PlayerId::new(*player), SimDuration::from_secs(*secs));
        }
        ledger.record_outputs(outputs);
        let m = ledger.metrics();
        prop_assert!(
            (m.expected_contribution - m.throughput_per_human_hour * m.alp_hours).abs()
                < 1e-9 * (1.0 + m.expected_contribution.abs())
        );
        prop_assert!(m.alp_hours >= 0.0);
        prop_assert!(m.throughput_per_human_hour >= 0.0);
    }

    // ---------- region geometry ----------

    #[test]
    fn iou_is_symmetric_and_bounded(
        ax in 0u32..500, ay in 0u32..500, aw in 1u32..200, ah in 1u32..200,
        bx in 0u32..500, by in 0u32..500, bw in 1u32..200, bh in 1u32..200,
    ) {
        let a = Region::new(ax, ay, aw, ah);
        let b = Region::new(bx, by, bw, bh);
        let iou = a.iou(&b);
        prop_assert!((0.0..=1.0).contains(&iou));
        prop_assert!((iou - b.iou(&a)).abs() < 1e-12);
        prop_assert!((a.iou(&a) - 1.0).abs() < 1e-12);
        // Intersection area never exceeds either operand's area.
        if let Some(i) = a.intersect(&b) {
            prop_assert!(i.area() <= a.area());
            prop_assert!(i.area() <= b.area());
        }
    }
}

/// Helper: builds an event queue from raw tick times.
fn hc_queue(times: &[u64]) -> WheelQueue<usize> {
    let mut q = WheelQueue::new();
    for (i, &t) in times.iter().enumerate() {
        q.push(SimTime::from_ticks(t), i);
    }
    q
}
