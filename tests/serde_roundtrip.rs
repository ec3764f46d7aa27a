//! Serde round-trips for every serializable public type that experiments
//! persist or print as JSON — configs, records, metrics. A type that
//! can't survive `to_json → from_json` silently corrupts saved results.

use human_computation::prelude::*;

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn ids_and_labels_round_trip() {
    let p = PlayerId::new(42);
    assert_eq!(roundtrip(&p), p);
    let t = TaskId::new(7);
    assert_eq!(roundtrip(&t), t);
    let l = Label::new("Hot Dogs!");
    assert_eq!(roundtrip(&l), l);
    assert_eq!(roundtrip(&l).as_str(), "hot dog");
}

#[test]
fn answers_round_trip() {
    for a in [
        Answer::text("dog"),
        Answer::verdict(true),
        Answer::Region(Region::new(1, 2, 3, 4)),
        Answer::Choice(9),
        Answer::Pass,
    ] {
        assert_eq!(roundtrip(&a), a);
    }
}

#[test]
fn sim_time_types_round_trip() {
    let t = SimTime::from_secs_f64(1.234567);
    assert_eq!(roundtrip(&t), t);
    let d = SimDuration::from_millis(987);
    assert_eq!(roundtrip(&d), d);
}

#[test]
fn configs_round_trip() {
    let pc = PlatformConfig::default();
    let back = roundtrip(&pc);
    assert_eq!(back, pc);

    let sc = SessionConfig::default();
    assert_eq!(roundtrip(&sc), sc);

    let mc = MatchmakerConfig::default();
    assert_eq!(roundtrip(&mc), mc);

    let rule = ScoreRule::default();
    assert_eq!(roundtrip(&rule), rule);
}

#[test]
fn records_round_trip() {
    let record = RoundRecord {
        template: TemplateKind::InputAgreement,
        task: TaskId::new(3),
        matched: true,
        candidate_outputs: 2,
        duration: SimDuration::from_secs(12),
        points: [130, 130],
    };
    assert_eq!(roundtrip(&record), record);

    let transcript = SessionTranscript {
        id: SessionId::new(1),
        players: [PlayerId::new(1), PlayerId::new(2)],
        started: SimTime::ZERO,
        ended: SimTime::from_secs(100),
        records: vec![record],
        total_points: [130, 130],
    };
    assert_eq!(roundtrip(&transcript), transcript);
}

#[test]
fn verified_labels_and_metrics_round_trip() {
    let v = VerifiedLabel {
        task: TaskId::new(1),
        label: Label::new("sky"),
        promoted_by: (PlayerId::new(1), PlayerId::new(2)),
        at: SimTime::from_secs(55),
    };
    assert_eq!(roundtrip(&v), v);

    let mut ledger = ContributionLedger::new();
    ledger.record_play(PlayerId::new(1), SimDuration::from_hours(1));
    ledger.record_outputs(10);
    let m = ledger.metrics();
    let back = roundtrip(&m);
    assert_eq!(back, m);
}

#[test]
fn captcha_types_round_trip() {
    let cfg = ReCaptchaConfig::default();
    let back: ReCaptchaConfig = roundtrip(&cfg);
    assert_eq!(back, cfg);

    let c = Captcha::new(vec!["alpha".into(), "beta".into()], 0.7, 1);
    let back: Captcha = roundtrip(&c);
    assert_eq!(back, c);
    assert_eq!(
        back.check(&["alpha".into(), "beta".into()]),
        CaptchaOutcome::Pass
    );
}

#[test]
fn crowd_models_round_trip() {
    let b = Behavior::Noisy { error_rate: 0.25 };
    assert_eq!(roundtrip(&b), b);
    let b = Behavior::spammer([Label::new("x"), Label::new("y")]);
    assert_eq!(roundtrip(&b), b);

    // JSON float text can differ from the original by one ULP; compare
    // within tolerance.
    let e = EngagementModel::esp_calibrated();
    let back = roundtrip(&e);
    assert!((back.session_mu - e.session_mu).abs() < 1e-12);
    assert!((back.session_sigma - e.session_sigma).abs() < 1e-12);
    assert!((back.churn_rate - e.churn_rate).abs() < 1e-12);

    let r = ResponseTimeModel {
        think_mu: 0.1,
        think_sigma: 0.6,
        per_char_secs: 0.08,
    };
    assert_eq!(roundtrip(&r), r);

    let d = SkillDynamics::default();
    let back = roundtrip(&d);
    assert_eq!(back, d);
}

#[test]
fn deserialized_behaviour_still_behaves() {
    use rand::SeedableRng;
    // A behaviour that crossed a serialization boundary must keep its
    // internal state semantics (spammer cursor resumes cycling).
    let mut original = Behavior::spammer([Label::new("a"), Label::new("b")]);
    let truth = LabelDistribution::uniform(vec![Label::new("z")]).unwrap();
    let vocab = Vocabulary::new(10, 1.0);
    let taboo = TabooList::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let _ = original.next_answer(&truth, &vocab, &taboo, &mut rng); // cursor -> 1
    let mut restored: Behavior = roundtrip(&original);
    assert_eq!(
        restored.next_answer(&truth, &vocab, &taboo, &mut rng),
        Answer::Text(Label::new("b")),
        "cursor state survives serialization"
    );
}
