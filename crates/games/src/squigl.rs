//! Squigl — output-agreement object tracing.
//!
//! Both players see the same image and an ESP-provided word, and each
//! *traces* the object the word names. They score when their traces
//! overlap strongly; the intersection of agreeing traces is kept as a
//! segmentation of the object. Where Peekaboom locates objects via
//! inversion, Squigl segments them via output agreement — the paper
//! presents the pair as the two spatial GWAPs.
//!
//! Traces are modelled as rectangles around the object (a player's
//! bounding trace): an attentive player's trace covers the object box
//! with skill-scaled jitter, a careless one drifts. Agreement = IoU of
//! the two traces above a threshold; the verified output is their
//! intersection.

use crate::params::{SessionParams, SessionPlay};
use crate::shard::plan_round;
use crate::world::WorldConfig;
use hc_core::prelude::*;
use hc_crowd::{Population, Vocabulary};
use rand::Rng;

/// Canvas width (shared with Peekaboom's convention).
pub const CANVAS_W: u32 = 640;
/// Canvas height.
pub const CANVAS_H: u32 = 480;

/// IoU two traces must reach to count as agreeing.
pub const AGREEMENT_IOU: f64 = 0.5;

/// Pause between rounds.
const INTER_ROUND_GAP: SimDuration = SimDuration::from_secs(2);

/// One Squigl stimulus: a named object with a ground-truth box.
#[derive(Debug, Clone, PartialEq)]
pub struct SquiglObject {
    /// The word naming the object to trace.
    pub word: Label,
    /// Ground-truth object box.
    pub bbox: Region,
}

/// The Squigl world.
#[derive(Debug, Clone)]
pub struct SquiglWorld {
    objects: Vec<SquiglObject>,
    vocabulary: Vocabulary,
}

impl SquiglWorld {
    /// Generates `config.stimuli` objects.
    pub fn generate<R: Rng + ?Sized>(config: &WorldConfig, rng: &mut R) -> Self {
        let vocabulary = Vocabulary::new(config.vocabulary, config.zipf_exponent);
        let objects = (0..config.stimuli)
            .map(|_| {
                let w = rng.gen_range(80..260u32);
                let h = rng.gen_range(80..220u32);
                let x = rng.gen_range(0..CANVAS_W - w);
                let y = rng.gen_range(0..CANVAS_H - h);
                SquiglObject {
                    word: vocabulary.sample(rng),
                    bbox: Region::new(x, y, w, h),
                }
            })
            .collect();
        SquiglWorld {
            objects,
            vocabulary,
        }
    }

    /// Number of objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// `true` when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Registers every object as a platform task.
    pub fn register_tasks(&self, platform: &mut Platform) -> Vec<TaskId> {
        (0..self.objects.len())
            .map(|i| platform.add_task(Stimulus::Image(i as u64)))
            .collect()
    }

    /// The object behind a task.
    #[must_use]
    pub fn object_for_task(&self, task: TaskId) -> Option<&SquiglObject> {
        self.objects.get(task.raw() as usize)
    }

    /// The shared vocabulary.
    #[must_use]
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocabulary
    }

    /// Samples one player's trace of `object`: the true box inflated/
    /// deflated and jittered inversely to skill. Adversarial players
    /// produce unrelated rectangles.
    pub fn sample_trace<R: Rng + ?Sized>(
        &self,
        object: &SquiglObject,
        skill: f64,
        adversarial: bool,
        rng: &mut R,
    ) -> Region {
        if adversarial {
            let w = rng.gen_range(40..200u32);
            let h = rng.gen_range(40..200u32);
            let x = rng.gen_range(0..CANVAS_W - w);
            let y = rng.gen_range(0..CANVAS_H - h);
            return Region::new(x, y, w, h);
        }
        let skill = skill.clamp(0.0, 1.0);
        let jitter = (1.0 - skill) * 60.0 + 4.0;
        let dx = (hc_sim::dist::standard_normal(rng) * jitter) as i64;
        let dy = (hc_sim::dist::standard_normal(rng) * jitter) as i64;
        let grow = 1.0 + hc_sim::dist::standard_normal(rng).abs() * (1.0 - skill) * 0.4;
        let w = ((f64::from(object.bbox.w) * grow) as u32).clamp(8, CANVAS_W);
        let h = ((f64::from(object.bbox.h) * grow) as u32).clamp(8, CANVAS_H);
        let x =
            (i64::from(object.bbox.x) + dx).clamp(0, i64::from(CANVAS_W.saturating_sub(w))) as u32;
        let y =
            (i64::from(object.bbox.y) + dy).clamp(0, i64::from(CANVAS_H.saturating_sub(h))) as u32;
        Region::new(x, y, w, h)
    }
}

/// Segmentations produced by a session: `(task, agreed region, IoU vs
/// truth)` per agreeing round.
#[derive(Debug, Clone, Default)]
pub struct SquiglOutputs {
    /// Agreed segmentations.
    pub segmentations: Vec<(TaskId, Region, f64)>,
}

impl SquiglOutputs {
    /// Mean IoU against ground truth over agreed rounds (0 when none).
    #[must_use]
    pub fn mean_iou(&self) -> f64 {
        if self.segmentations.is_empty() {
            return 0.0;
        }
        self.segmentations
            .iter()
            .map(|(_, _, iou)| iou)
            .sum::<f64>()
            / self.segmentations.len() as f64
    }
}

/// Drives one Squigl session between two players.
pub fn play_squigl_session<R: Rng + ?Sized>(
    platform: &mut Platform,
    world: &SquiglWorld,
    population: &mut Population,
    params: SessionParams,
    rng: &mut R,
) -> (SessionTranscript, SquiglOutputs) {
    let [left, right] = params.seats;
    let cfg = platform.config().session;
    let mut play = SessionPlay::begin(params, cfg, cfg.score_rule);
    let mut outputs = SquiglOutputs::default();
    while play.can_play_more() {
        let Some(task) = plan_round(platform, &params.seats, rng).map(|p| p.task) else {
            break;
        };
        let Some(object) = world.object_for_task(task).cloned() else {
            break;
        };
        #[expect(
            clippy::expect_used,
            reason = "callers pass two distinct registered ids"
        )]
        let (pa, pb) = population
            .get_pair_mut(left, right)
            .expect("players exist and are distinct");
        // Each player traces once; tracing takes a few think-time draws.
        let mut duration = SimDuration::ZERO;
        let mut traces = [Region::new(0, 0, 0, 0); 2];
        for (i, profile) in [pa, pb].into_iter().enumerate() {
            traces[i] = world.sample_trace(&object, profile.skill, profile.is_adversarial(), rng);
            duration += profile.response.sample(None, rng) * 3;
        }
        let iou = traces[0].iou(&traces[1]);
        let matched = iou >= AGREEMENT_IOU;
        if matched {
            if let Some(agreed) = traces[0].intersect(&traces[1]) {
                outputs
                    .segmentations
                    .push((task, agreed, agreed.iou(&object.bbox)));
                // The agreed association flows through verification.
                let _ = platform.ingest_agreement(task, object.word.clone(), left, right);
            }
        }
        // The round is scored on its clamped duration. The unclamped one
        // earned the same points: a round that overruns the limit is slower
        // than the fast-bonus threshold whenever `fast_threshold_secs`
        // (20 s) is below `round_time_limit` (150 s).
        let duration = duration.min(cfg.round_time_limit);
        let next = play.now() + duration + INTER_ROUND_GAP;
        play.record(
            TemplateKind::OutputAgreement,
            task,
            matched,
            u32::from(matched),
            duration,
            next,
        );
    }
    let transcript = play.finish();
    platform.record_session(&transcript);
    (transcript, outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_crowd::{ArchetypeMix, PopulationBuilder};
    use rand::SeedableRng;

    fn setup(skill: f64) -> (Platform, SquiglWorld, Population, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
        let world = SquiglWorld::generate(&WorldConfig::small(), &mut rng);
        let mut platform = Platform::new(PlatformConfig {
            gold_injection_rate: 0.0,
            ..PlatformConfig::default()
        })
        .unwrap();
        world.register_tasks(&mut platform);
        let pop = PopulationBuilder::new(2)
            .mix(ArchetypeMix::all_honest())
            .skill_range(skill, (skill + 0.01).min(1.0))
            .build(&mut rng);
        platform.register_player();
        platform.register_player();
        (platform, world, pop, rng)
    }

    #[test]
    fn skilled_pairs_segment_objects() {
        let (mut platform, world, mut pop, mut rng) = setup(0.95);
        let (t, out) = play_squigl_session(
            &mut platform,
            &world,
            &mut pop,
            SessionParams::pair(
                PlayerId::new(0),
                PlayerId::new(1),
                SessionId::new(0),
                SimTime::ZERO,
            ),
            &mut rng,
        );
        assert!(t.rounds() > 0);
        assert!(
            t.match_rate() > 0.5,
            "skilled agreement rate {}",
            t.match_rate()
        );
        assert!(!out.segmentations.is_empty());
        assert!(out.mean_iou() > 0.5, "segmentation IoU {}", out.mean_iou());
    }

    #[test]
    fn unskilled_traces_agree_less() {
        let rate = |skill: f64| {
            let (mut platform, world, mut pop, mut rng) = setup(skill);
            let mut matched = 0;
            let mut rounds = 0;
            for s in 0..6 {
                let (t, _) = play_squigl_session(
                    &mut platform,
                    &world,
                    &mut pop,
                    SessionParams::pair(
                        PlayerId::new(0),
                        PlayerId::new(1),
                        SessionId::new(s),
                        SimTime::from_secs(s * 1_000),
                    ),
                    &mut rng,
                );
                matched += t.matched_count();
                rounds += t.rounds();
            }
            matched as f64 / rounds.max(1) as f64
        };
        assert!(rate(0.95) > rate(0.1) + 0.2, "skill must drive agreement");
    }

    #[test]
    fn adversarial_traces_rarely_agree_with_honest_ones() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let world = SquiglWorld::generate(&WorldConfig::small(), &mut rng);
        let object = world.object_for_task(TaskId::new(0)).unwrap();
        let mut agreements = 0;
        for _ in 0..300 {
            let honest = world.sample_trace(object, 0.9, false, &mut rng);
            let adv = world.sample_trace(object, 0.9, true, &mut rng);
            if honest.iou(&adv) >= AGREEMENT_IOU {
                agreements += 1;
            }
        }
        assert!(agreements < 30, "adversarial agreements {agreements}");
    }

    #[test]
    fn traces_stay_on_canvas() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let world = SquiglWorld::generate(&WorldConfig::small(), &mut rng);
        let object = world.object_for_task(TaskId::new(1)).unwrap();
        for _ in 0..300 {
            for adv in [false, true] {
                let tr = world.sample_trace(object, 0.2, adv, &mut rng);
                assert!(tr.x + tr.w <= CANVAS_W, "trace off canvas: {tr:?}");
                assert!(tr.y + tr.h <= CANVAS_H, "trace off canvas: {tr:?}");
            }
        }
    }

    #[test]
    fn world_accessors() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let world = SquiglWorld::generate(&WorldConfig::small(), &mut rng);
        assert_eq!(world.len(), 50);
        assert!(!world.is_empty());
        assert!(world.object_for_task(TaskId::new(0)).is_some());
        assert!(world.object_for_task(TaskId::new(999)).is_none());
        assert!(!world.vocabulary().is_empty());
        assert_eq!(SquiglOutputs::default().mean_iou(), 0.0);
    }
}
