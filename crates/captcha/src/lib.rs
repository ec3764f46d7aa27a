//! # hc-captcha — CAPTCHA and reCAPTCHA, simulated end to end
//!
//! The target paper's first half is the CAPTCHA story: a distorted-text
//! challenge that humans pass and programs fail, and **reCAPTCHA**, which
//! recycles that human effort to digitize books — each challenge pairs a
//! *control* word (answer known) with an *unknown* word (where OCR failed);
//! answering the control correctly authenticates the user *and* casts a
//! vote on the unknown word. The paper reports ≥ 99% word-level accuracy
//! for the resulting transcriptions.
//!
//! We cannot ship scanned books or a commercial OCR engine, so this crate
//! substitutes the *error processes* that drive every reported number
//! (see DESIGN.md):
//!
//! * [`corpus`] — a synthetic scanned-book corpus: deterministic
//!   pseudo-words, each with a distortion level standing in for scan
//!   quality.
//! * [`ocr`] — a parametric OCR attacker/transcriber whose per-character
//!   accuracy degrades linearly with distortion (clean scans read well,
//!   hard scans fail — the reason reCAPTCHA has material to work with).
//! * [`human`] — a human reader model that degrades only mildly with
//!   distortion, with realistic typo errors.
//! * [`challenge`] — the CAPTCHA proper: issue, answer matching with
//!   edit-distance tolerance, pass/fail.
//! * [`recaptcha`] — the two-word protocol and vote-based word promotion
//!   (human votes weigh 1.0, the OCR's own guess seeds 0.5, matching the
//!   deployed weighting).
//! * [`pipeline`] — the digitization loop over a whole corpus, tracking
//!   progress and residual error for experiments F1/F7.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::dbg_macro,
        clippy::disallowed_types,
        clippy::disallowed_methods
    )
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod challenge;
pub mod corpus;
pub mod human;
pub mod ocr;
pub mod pipeline;
pub mod recaptcha;

pub use challenge::{Captcha, CaptchaOutcome};
pub use corpus::{ScannedCorpus, ScannedWord};
pub use human::HumanReader;
pub use ocr::OcrEngine;
pub use pipeline::{DigitizationPipeline, PipelineProgress};
pub use recaptcha::{ChallengeResponse, ReCaptcha, ReCaptchaConfig, WordStatus};
