//! Job running totals and the per-job export index against from-scratch
//! references.
//!
//! `Job` keeps two running totals (credited outputs and the per-task
//! capped sum) and `Platform` keeps, per job, the positions of its labels
//! in the verified-label stream. Random scripts of task registrations,
//! job openings (over fresh tasks, tasks verified before enrollment,
//! tasks already enrolled and tasks listed twice), promotions (past the
//! per-task cap, after completion and after cancellation) and
//! cancellations must leave, after every step:
//!
//! * `total_outputs`, `progress` and `is_goal_met` equal to the sums over
//!   the job's per-task outputs;
//! * `total_outputs` equal to the promotions made while the job was
//!   active;
//! * `job_labels` equal to `verified_labels()` filtered by `job_of`;
//! * a refused job enrolling nothing.

use hc_core::jobs::{Job, JobGoal, JobState};
use hc_core::{
    Error, JobId, Label, Platform, PlatformConfig, PlayerId, Stimulus, TaskId, VerifiedLabel,
};
use hc_sim::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// `progress` as the sum over the job's tasks it replaced.
fn reference_progress(job: &Job) -> f64 {
    match job.goal {
        JobGoal::OutputsPerTask(per) => {
            if job.tasks().is_empty() || per == 0 {
                return 1.0;
            }
            let done: u64 = job
                .tasks()
                .iter()
                .map(|t| u64::from(job.outputs_for(*t).min(per)))
                .sum();
            done as f64 / (job.tasks().len() as u64 * u64::from(per)) as f64
        }
        JobGoal::TotalOutputs(total) => {
            if total == 0 {
                return 1.0;
            }
            (reference_total(job) as f64 / total as f64).min(1.0)
        }
    }
}

fn reference_total(job: &Job) -> u64 {
    job.tasks()
        .iter()
        .map(|t| u64::from(job.outputs_for(*t)))
        .sum()
}

/// The first task of `tasks` that is already enrolled or repeats an
/// earlier entry: the one a job over `tasks` must be refused for.
fn first_conflict(platform: &Platform, tasks: &[TaskId]) -> Option<TaskId> {
    tasks.iter().enumerate().find_map(|(i, t)| {
        (platform.jobs().job_of(*t).is_some() || tasks[..i].contains(t)).then_some(*t)
    })
}

fn check(platform: &Platform, credited: &BTreeMap<JobId, u64>) -> Result<(), TestCaseError> {
    for job in platform.jobs().iter() {
        prop_assert_eq!(job.total_outputs(), reference_total(job));
        prop_assert_eq!(
            job.total_outputs(),
            credited.get(&job.id).copied().unwrap_or(0)
        );
        let progress = reference_progress(job);
        prop_assert_eq!(job.progress().to_bits(), progress.to_bits());
        prop_assert_eq!(job.is_goal_met(), progress >= 1.0);
        let indexed: Vec<&VerifiedLabel> = platform.job_labels(job.id).expect("open job").collect();
        let filtered: Vec<&VerifiedLabel> = platform
            .verified_labels()
            .iter()
            .filter(|v| platform.jobs().job_of(v.task) == Some(job.id))
            .collect();
        prop_assert_eq!(indexed, filtered);
    }
    Ok(())
}

const LABELS: [&str; 5] = ["red", "blue", "green", "gold", "cat"];

fn goal(a: u64) -> JobGoal {
    match a % 4 {
        0 => JobGoal::OutputsPerTask((a / 4 % 3) as u32),
        1 => JobGoal::OutputsPerTask(1 + (a / 4 % 2) as u32),
        _ => JobGoal::TotalOutputs(a / 4 % 6),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn running_totals_and_export_index_match_references(
        ops in proptest::collection::vec((0u8..10, 0u64..1000, 0u64..1000), 1..80)
    ) {
        let config = PlatformConfig {
            gold_injection_rate: 0.0,
            ..PlatformConfig::default()
        };
        let mut platform = Platform::new(config).expect("valid config");
        let players: Vec<PlayerId> = (0..4).map(|_| platform.register_player()).collect();
        let mut tasks: Vec<TaskId> = Vec::new();
        // Promotions per job made while it was active.
        let mut credited: BTreeMap<JobId, u64> = BTreeMap::new();
        for (step, &(code, a, b)) in ops.iter().enumerate() {
            platform.set_time(SimTime::from_secs(step as u64));
            match code {
                0 | 1 => tasks.push(platform.add_task(Stimulus::Image(a))),
                2 | 3 if !tasks.is_empty() => {
                    // Runs of up to 4 tasks; stride 0 lists one task twice.
                    let len = 1 + (a % 4) as usize;
                    let stride = (a / 4 % 3) as usize;
                    let listed: Vec<TaskId> = (0..len)
                        .map(|i| tasks[(b as usize + i * stride) % tasks.len()])
                        .collect();
                    let conflict = first_conflict(&platform, &listed);
                    let jobs_before = platform.jobs().len();
                    let enrolled_before: Vec<_> =
                        listed.iter().map(|t| platform.jobs().job_of(*t)).collect();
                    match platform.open_job("j", goal(b), listed.clone()) {
                        Ok(job) => {
                            prop_assert_eq!(conflict, None);
                            for t in &listed {
                                prop_assert_eq!(platform.jobs().job_of(*t), Some(job));
                            }
                        }
                        Err(e) => {
                            prop_assert_eq!(Some(e), conflict.map(Error::TaskAlreadyEnrolled));
                            prop_assert_eq!(platform.jobs().len(), jobs_before);
                            let enrolled_after: Vec<_> =
                                listed.iter().map(|t| platform.jobs().job_of(*t)).collect();
                            prop_assert_eq!(enrolled_after, enrolled_before);
                        }
                    }
                }
                4..=8 if !tasks.is_empty() => {
                    // A few labels per task: new ones promote, repeats do not.
                    let task = tasks[(a as usize) % tasks.len()];
                    let label = Label::new(LABELS[(b % 5) as usize]);
                    let (x, y) = (players[(b % 4) as usize], players[((b + 1) % 4) as usize]);
                    let active = platform
                        .jobs()
                        .job_of(task)
                        .filter(|j| platform.jobs().get(*j).map(|j| j.state) == Some(JobState::Active));
                    if platform.ingest_agreement(task, label, x, y).expect("known task") {
                        if let Some(job) = active {
                            *credited.entry(job).or_default() += 1;
                        }
                    }
                }
                9 if !platform.jobs().is_empty() => {
                    let job = platform.jobs().iter().nth(a as usize % platform.jobs().len())
                        .map(|j| j.id)
                        .expect("non-empty");
                    platform.cancel_job(job).expect("open job");
                }
                _ => {}
            }
            check(&platform, &credited)?;
        }
    }
}
