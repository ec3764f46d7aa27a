//! Labeling jobs — batches of tasks with a goal and progress tracking.
//!
//! The deployed systems were run as *campaigns*: "label these 100,000
//! images", "digitize this book", each with its own completion criterion
//! and progress dashboard. [`JobBook`] layers that bookkeeping over the
//! platform's task store: tasks are enrolled into jobs, verified outputs
//! are credited to the owning job, and each job reports its progress and
//! estimated completion.

use crate::id::{JobId, TaskId};
use hc_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Completion criterion for a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobGoal {
    /// Every task needs at least this many verified outputs.
    OutputsPerTask(u32),
    /// The job as a whole needs this many verified outputs.
    TotalOutputs(u64),
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Accepting and serving tasks.
    Active,
    /// Goal reached.
    Completed,
    /// Administratively stopped.
    Cancelled,
}

/// One labeling campaign.
///
/// Not serializable: the running totals below are derived from
/// `outputs`, and a decoder could leave them stale.
#[derive(Debug, Clone)]
pub struct Job {
    /// Unique id.
    pub id: JobId,
    /// Human-readable name ("dresden-scans-vol2").
    pub name: String,
    /// Completion criterion.
    pub goal: JobGoal,
    /// Current state.
    pub state: JobState,
    /// When the job was opened.
    pub opened_at: SimTime,
    /// When the job completed/cancelled, if it did.
    pub closed_at: Option<SimTime>,
    /// Tasks enrolled.
    tasks: Vec<TaskId>,
    /// Verified outputs per enrolled task.
    outputs: BTreeMap<TaskId, u32>,
    /// Running Σ of `outputs`.
    credited: u64,
    /// Running Σ over enrolled tasks of min(outputs, per-task goal);
    /// stays 0 under [`JobGoal::TotalOutputs`].
    capped: u64,
}

impl Job {
    /// Tasks enrolled in this job.
    #[must_use]
    pub fn tasks(&self) -> &[TaskId] {
        &self.tasks
    }

    /// Total verified outputs credited so far.
    ///
    /// Credits stop once the job leaves [`JobState::Active`], while
    /// promotions on its tasks go on. So this can be smaller than the
    /// number of verified labels on the job's tasks, which is what an
    /// export returns.
    #[must_use]
    pub fn total_outputs(&self) -> u64 {
        self.credited
    }

    /// Verified outputs for one enrolled task.
    #[must_use]
    pub fn outputs_for(&self, task: TaskId) -> u32 {
        self.outputs.get(&task).copied().unwrap_or(0)
    }

    /// Progress toward the goal in `[0, 1]`.
    #[must_use]
    pub fn progress(&self) -> f64 {
        match self.goal {
            JobGoal::OutputsPerTask(per) => {
                if self.tasks.is_empty() || per == 0 {
                    return 1.0;
                }
                self.capped as f64 / (self.tasks.len() as u64 * u64::from(per)) as f64
            }
            JobGoal::TotalOutputs(total) => {
                if total == 0 {
                    return 1.0;
                }
                (self.total_outputs() as f64 / total as f64).min(1.0)
            }
        }
    }

    /// `true` once the goal is met.
    #[must_use]
    pub fn is_goal_met(&self) -> bool {
        self.progress() >= 1.0
    }
}

/// The registry of jobs and the task → job index.
///
/// # Examples
///
/// ```
/// use hc_core::jobs::{JobBook, JobGoal, JobState};
/// use hc_core::TaskId;
/// use hc_sim::SimTime;
///
/// let mut book = JobBook::new();
/// let job = book.open(
///     "label-animals",
///     JobGoal::OutputsPerTask(1),
///     vec![TaskId::new(1), TaskId::new(2)],
///     SimTime::ZERO,
/// ).unwrap();
///
/// book.credit_output(TaskId::new(1), SimTime::from_secs(5));
/// assert_eq!(book.get(job).unwrap().progress(), 0.5);
/// book.credit_output(TaskId::new(2), SimTime::from_secs(9));
/// assert_eq!(book.get(job).unwrap().state, JobState::Completed);
/// ```
#[derive(Debug, Clone, Default)]
pub struct JobBook {
    jobs: BTreeMap<JobId, Job>,
    task_index: BTreeMap<TaskId, JobId>,
    next_id: u64,
}

impl JobBook {
    /// Creates an empty book.
    #[must_use]
    pub fn new() -> Self {
        JobBook::default()
    }

    /// Opens a job over `tasks`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::EmptyJob`] when `tasks` is empty and
    /// [`crate::Error::TaskAlreadyEnrolled`] when a task is already
    /// enrolled in a job or listed twice; a refused job enrolls nothing.
    pub fn open(
        &mut self,
        name: &str,
        goal: JobGoal,
        tasks: Vec<TaskId>,
        now: SimTime,
    ) -> crate::Result<JobId> {
        if tasks.is_empty() {
            return Err(crate::Error::EmptyJob);
        }
        let id = JobId::new(self.next_id);
        for (i, t) in tasks.iter().enumerate() {
            match self.task_index.entry(*t) {
                Entry::Vacant(slot) => {
                    slot.insert(id);
                }
                Entry::Occupied(_) => {
                    for enrolled in &tasks[..i] {
                        self.task_index.remove(enrolled);
                    }
                    return Err(crate::Error::TaskAlreadyEnrolled(*t));
                }
            }
        }
        self.next_id += 1;
        self.jobs.insert(
            id,
            Job {
                id,
                name: name.to_string(),
                goal,
                state: JobState::Active,
                opened_at: now,
                closed_at: None,
                tasks,
                outputs: BTreeMap::new(),
                credited: 0,
                capped: 0,
            },
        );
        Ok(id)
    }

    /// Looks up a job.
    #[must_use]
    pub fn get(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// The job owning a task, if any.
    #[must_use]
    pub fn job_of(&self, task: TaskId) -> Option<JobId> {
        self.task_index.get(&task).copied()
    }

    /// Number of jobs (any state).
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when no jobs exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Credits one verified output to the owning job (no-op for tasks not
    /// enrolled anywhere, and for jobs no longer active); completes the
    /// job when its goal is met. Returns the owning job id, credited or
    /// not.
    pub fn credit_output(&mut self, task: TaskId, now: SimTime) -> Option<JobId> {
        let job_id = self.job_of(task)?;
        let job = self.jobs.get_mut(&job_id)?;
        if job.state != JobState::Active {
            return Some(job_id);
        }
        let count = job.outputs.entry(task).or_insert(0);
        *count += 1;
        job.credited += 1;
        if matches!(job.goal, JobGoal::OutputsPerTask(per) if *count <= per) {
            job.capped += 1;
        }
        if job.is_goal_met() {
            job.state = JobState::Completed;
            job.closed_at = Some(now);
        }
        Some(job_id)
    }

    /// Cancels an active job.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::UnknownJob`] for missing ids.
    pub fn cancel(&mut self, id: JobId, now: SimTime) -> crate::Result<()> {
        let job = self.jobs.get_mut(&id).ok_or(crate::Error::UnknownJob(id))?;
        if job.state == JobState::Active {
            job.state = JobState::Cancelled;
            job.closed_at = Some(now);
        }
        Ok(())
    }

    /// Iterates over all jobs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &Job> {
        self.jobs.values()
    }

    /// Active jobs only.
    pub fn active(&self) -> impl Iterator<Item = &Job> {
        self.jobs.values().filter(|j| j.state == JobState::Active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(raw: u64) -> TaskId {
        TaskId::new(raw)
    }

    #[test]
    fn empty_jobs_are_rejected() {
        let mut book = JobBook::new();
        assert_eq!(
            book.open("empty", JobGoal::TotalOutputs(1), vec![], SimTime::ZERO),
            Err(crate::Error::EmptyJob)
        );
        assert!(book.is_empty());
    }

    #[test]
    fn per_task_goal_completes_when_all_covered() {
        let mut book = JobBook::new();
        let id = book
            .open(
                "j",
                JobGoal::OutputsPerTask(2),
                vec![t(1), t(2)],
                SimTime::ZERO,
            )
            .unwrap();
        // Over-crediting one task does not finish the job.
        for _ in 0..5 {
            book.credit_output(t(1), SimTime::from_secs(1));
        }
        let job = book.get(id).unwrap();
        assert_eq!(job.state, JobState::Active);
        assert!((job.progress() - 0.5).abs() < 1e-12, "capped per task");
        book.credit_output(t(2), SimTime::from_secs(2));
        book.credit_output(t(2), SimTime::from_secs(3));
        let job = book.get(id).unwrap();
        assert_eq!(job.state, JobState::Completed);
        assert_eq!(job.closed_at, Some(SimTime::from_secs(3)));
        assert_eq!(job.outputs_for(t(1)), 5);
        assert_eq!(job.total_outputs(), 7);
    }

    #[test]
    fn total_goal_counts_across_tasks() {
        let mut book = JobBook::new();
        let id = book
            .open(
                "j",
                JobGoal::TotalOutputs(3),
                vec![t(1), t(2)],
                SimTime::ZERO,
            )
            .unwrap();
        book.credit_output(t(1), SimTime::from_secs(1));
        book.credit_output(t(1), SimTime::from_secs(2));
        assert_eq!(book.get(id).unwrap().state, JobState::Active);
        book.credit_output(t(2), SimTime::from_secs(3));
        assert_eq!(book.get(id).unwrap().state, JobState::Completed);
    }

    #[test]
    fn credits_to_unenrolled_tasks_are_noops() {
        let mut book = JobBook::new();
        book.open("j", JobGoal::TotalOutputs(1), vec![t(1)], SimTime::ZERO)
            .unwrap();
        assert_eq!(book.credit_output(t(99), SimTime::ZERO), None);
    }

    #[test]
    fn a_task_joins_at_most_one_job() {
        let mut book = JobBook::new();
        let first = book
            .open(
                "first",
                JobGoal::OutputsPerTask(1),
                vec![t(1), t(2)],
                SimTime::ZERO,
            )
            .unwrap();
        // A second job over an enrolled task is refused whole: task 3
        // stays unenrolled and task 2 keeps crediting the first job.
        assert_eq!(
            book.open(
                "second",
                JobGoal::TotalOutputs(1),
                vec![t(3), t(2)],
                SimTime::ZERO
            ),
            Err(crate::Error::TaskAlreadyEnrolled(t(2)))
        );
        assert_eq!(book.job_of(t(3)), None);
        assert_eq!(book.len(), 1);
        book.credit_output(t(1), SimTime::from_secs(1));
        assert_eq!(book.credit_output(t(2), SimTime::from_secs(2)), Some(first));
        assert_eq!(book.get(first).unwrap().state, JobState::Completed);
        // A task listed twice would count twice toward progress.
        assert_eq!(
            book.open(
                "twice",
                JobGoal::OutputsPerTask(1),
                vec![t(4), t(4)],
                SimTime::ZERO
            ),
            Err(crate::Error::TaskAlreadyEnrolled(t(4)))
        );
        assert_eq!(book.job_of(t(4)), None);
        // Refused jobs consume no id.
        let next = book
            .open("next", JobGoal::TotalOutputs(1), vec![t(4)], SimTime::ZERO)
            .unwrap();
        assert_eq!(next, JobId::new(1));
    }

    #[test]
    fn completed_jobs_stop_counting() {
        let mut book = JobBook::new();
        let id = book
            .open("j", JobGoal::TotalOutputs(1), vec![t(1)], SimTime::ZERO)
            .unwrap();
        book.credit_output(t(1), SimTime::from_secs(1));
        book.credit_output(t(1), SimTime::from_secs(2));
        let job = book.get(id).unwrap();
        assert_eq!(job.total_outputs(), 1, "post-completion credits ignored");
    }

    #[test]
    fn cancel_and_queries() {
        let mut book = JobBook::new();
        let id = book
            .open("j", JobGoal::TotalOutputs(10), vec![t(1)], SimTime::ZERO)
            .unwrap();
        assert_eq!(book.job_of(t(1)), Some(id));
        assert_eq!(book.active().count(), 1);
        book.cancel(id, SimTime::from_secs(1)).unwrap();
        assert_eq!(book.get(id).unwrap().state, JobState::Cancelled);
        assert_eq!(book.active().count(), 0);
        assert!(book.cancel(JobId::new(99), SimTime::ZERO).is_err());
        assert_eq!(book.len(), 1);
        assert_eq!(book.iter().count(), 1);
    }

    #[test]
    fn degenerate_goals_complete_immediately_on_first_credit() {
        let mut book = JobBook::new();
        let id = book
            .open("zero", JobGoal::TotalOutputs(0), vec![t(1)], SimTime::ZERO)
            .unwrap();
        assert!(book.get(id).unwrap().is_goal_met());
        let id2 = book
            .open(
                "zero-per",
                JobGoal::OutputsPerTask(0),
                vec![t(2)],
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(book.get(id2).unwrap().progress(), 1.0);
    }
}
