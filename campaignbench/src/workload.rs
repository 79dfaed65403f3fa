//! The four canonical campaigns: inputs generated from the workload seed,
//! and one generic runner that drives them through the public API.

use crate::clock;
use crate::trace::{self, Layer};
use std::path::Path;
use ugc_core::analysis::{cheat_success_probability, cheat_success_probability_under_churn};
use ugc_core::{
    run_durable_fleet_on, run_mixed_fleet_on, summary_digest, CampaignHeader, DurableCampaign,
    FleetScheme, FleetSummary, FleetTransport, MemberSpec, MixedFleetConfig, TransportBackend,
    VerificationScheme,
};
use ugc_grid::runtime::FaultPlan;
use ugc_grid::{CheatSelection, HonestWorker, SemiHonestCheater, WorkerBehaviour};
use ugc_hash::HashFunction;
use ugc_journal::{verify_journal, CrashPlan};
use ugc_task::workloads::PasswordSearch;
use ugc_task::{ComputeTask, Domain, MatchScreener, SplitMix64, ZeroGuesser};

/// Participant slots in the fleet campaigns.
const FLEET_SLOTS: usize = 1000;
/// Inputs per fleet member: sessions are tiny, so the runtime does the work.
const FLEET_SHARE: u64 = 8;
/// Samples per CBS / NI-CBS / naive fleet member.
const FLEET_SAMPLES: usize = 6;
/// Ringers per ringer fleet member.
const FLEET_RINGERS: usize = 4;
/// One planted cheater per this many fleet members.
const CHEAT_EVERY: usize = 100;
/// Honesty ratio of a planted cheater. Low enough that even the weakest
/// check in the mix (4 ringers) leaves a closed-form survival chance
/// below [`SURVIVAL_LIMIT`] for the whole campaign.
const CHEATER_HONESTY: f64 = 0.01;
/// Largest closed-form chance, per campaign, that any planted cheater
/// survives.
pub const SURVIVAL_LIMIT: f64 = 1e-6;
/// Chaos churn: participant crash rate, in parts per 1024.
const CHURN_PER_1024: u16 = 40;
/// Reassignments of a failed session in the chaos fleet.
const CHAOS_RETRIES: u32 = 8;
/// Seeded fault schedules one chaos run cycles through. How long a chaos
/// campaign takes and what it costs depend on where its schedule puts
/// crashes, so a run measures several schedules rather than one.
const CHAOS_PLANS: usize = 8;
/// The paper-sized CBS round: domain size and samples.
const CBS_DOMAIN: u64 = 1 << 20;
pub const CBS_SAMPLES: usize = 25;

/// A canonical campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fleet,
    ChaosFleet,
    CbsPaper,
    DurableFleet,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "fleet_1000" => Workload::Fleet,
            "chaos_fleet_1000" => Workload::ChaosFleet,
            "cbs_paper" => Workload::CbsPaper,
            "durable_fleet_1000" => Workload::DurableFleet,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet_1000",
            Workload::ChaosFleet => "chaos_fleet_1000",
            Workload::CbsPaper => "cbs_paper",
            Workload::DurableFleet => "durable_fleet_1000",
        }
    }

    /// The seed a run uses when none is given.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Fleet => 1,
            Workload::ChaosFleet => 2,
            Workload::CbsPaper => 3,
            Workload::DurableFleet => 4,
        }
    }
}

/// One roster entry: which of the campaign's schemes a member runs, and
/// whether it is a planted cheater.
#[derive(Debug, Clone, Copy)]
struct Member {
    scheme: usize,
    cheater: bool,
}

/// Everything one campaign needs, generated from the workload seed. The
/// program under test receives only these values.
pub struct Inputs {
    pub workload: Workload,
    pub task: PasswordSearch,
    pub screener: MatchScreener,
    honest: HonestWorker,
    cheater: SemiHonestCheater<ZeroGuesser>,
    /// The campaign's schemes with their derived seeds.
    schemes: Vec<(FleetScheme, u64)>,
    roster: Vec<Member>,
    pub domain: Domain,
    /// The campaign configuration, with the first fault schedule.
    config: MixedFleetConfig,
    /// The fault schedules campaigns cycle through (`None` runs clean).
    plans: Vec<Option<FaultPlan>>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, workers: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut derive = || rng.next_u64();
        let (schemes, roster, share) = match workload {
            Workload::CbsPaper => {
                let scheme = FleetScheme::Cbs {
                    samples: CBS_SAMPLES,
                    report_audit: 0,
                };
                let members = workers;
                let roster = vec![
                    Member {
                        scheme: 0,
                        cheater: false
                    };
                    members
                ];
                (
                    vec![(scheme, derive())],
                    roster,
                    CBS_DOMAIN / members as u64,
                )
            }
            _ => {
                let kinds = [
                    FleetScheme::Cbs {
                        samples: FLEET_SAMPLES,
                        report_audit: 0,
                    },
                    FleetScheme::NiCbs {
                        samples: FLEET_SAMPLES,
                        g_iterations: 1,
                        report_audit: 0,
                    },
                    FleetScheme::Naive {
                        samples: FLEET_SAMPLES,
                    },
                    FleetScheme::Ringer {
                        ringers: FLEET_RINGERS,
                    },
                    FleetScheme::DoubleCheck,
                ];
                let schemes: Vec<(FleetScheme, u64)> =
                    kinds.iter().map(|&k| (k, derive())).collect();
                (schemes, fleet_roster(&kinds), FLEET_SHARE)
            }
        };
        let n = share * roster.len() as u64;
        let password = derive() % n;
        let task = PasswordSearch::with_hidden_password(derive(), password);
        let screener = task.match_screener();
        let cheater = SemiHonestCheater::new(
            CHEATER_HONESTY,
            CheatSelection::Scattered,
            ZeroGuesser::new(derive()),
            derive(),
        );
        let plans: Vec<Option<FaultPlan>> = if workload == Workload::ChaosFleet {
            (0..CHAOS_PLANS)
                .map(|_| Some(FaultPlan::chaos(derive()).with_churn(CHURN_PER_1024)))
                .collect()
        } else {
            vec![None]
        };
        let chaos = plans[0];
        let config = MixedFleetConfig {
            transport: match workload {
                Workload::Fleet | Workload::ChaosFleet => FleetTransport::Brokered,
                Workload::CbsPaper | Workload::DurableFleet => FleetTransport::Direct,
            },
            chaos,
            retries: if chaos.is_some() { CHAOS_RETRIES } else { 0 },
            workers: Some(workers),
            ..MixedFleetConfig::default()
        };
        Inputs {
            workload,
            task,
            screener,
            honest: HonestWorker,
            cheater,
            schemes,
            roster,
            domain: Domain::new(0, n),
            config,
            plans,
        }
    }

    /// How many fault schedules a run cycles through (1 without chaos).
    pub fn plans(&self) -> usize {
        self.plans.len()
    }

    /// The configuration of campaign `index` of a phase: campaigns cycle
    /// through the fault schedules.
    pub fn config(&self, index: usize) -> MixedFleetConfig {
        MixedFleetConfig {
            chaos: self.plans[index % self.plans.len()],
            ..self.config
        }
    }

    pub fn transport(&self) -> FleetTransport {
        self.config.transport
    }

    /// The campaign's scheme objects for hash function `H`.
    pub fn schemes<H: HashFunction>(&self) -> Vec<Box<dyn VerificationScheme<H>>> {
        self.schemes
            .iter()
            .map(|&(scheme, seed)| scheme.instantiate::<H>(seed))
            .collect()
    }

    /// The roster over `schemes` (from [`schemes`](Self::schemes), maybe
    /// wrapped). A cheater on a two-slot scheme shares its member with
    /// an honest replica, which is what double-check needs to catch it.
    pub fn members<'a, H: HashFunction>(
        &'a self,
        schemes: &'a [&'a dyn VerificationScheme<H>],
    ) -> Vec<MemberSpec<'a, H>> {
        self.roster
            .iter()
            .map(|member| {
                let scheme = schemes[member.scheme];
                let honest: &dyn WorkerBehaviour = &self.honest;
                let mut behaviours = vec![honest; scheme.participant_slots()];
                if member.cheater {
                    behaviours[0] = &self.cheater;
                }
                MemberSpec { scheme, behaviours }
            })
            .collect()
    }

    pub fn member_count(&self) -> usize {
        self.roster.len()
    }

    pub fn slot_count(&self) -> usize {
        self.roster
            .iter()
            .map(|m| self.schemes[m.scheme].0.slots())
            .sum()
    }

    pub fn is_cheater(&self, member: usize) -> bool {
        self.roster[member].cheater
    }

    pub fn cheaters(&self) -> usize {
        self.roster.iter().filter(|m| m.cheater).count()
    }

    /// The closed-form chance (Eq. 2, under churn when the plans crash
    /// participants; every plan has the same rates) that at least one
    /// planted cheater survives, by the union bound over cheaters.
    pub fn survival_chance(&self) -> f64 {
        let crash = self
            .config
            .chaos
            .map_or(0.0, |plan| f64::from(plan.crash_per_1024) / 1024.0);
        self.roster
            .iter()
            .filter(|m| m.cheater)
            .map(|m| {
                let checks = match self.schemes[m.scheme].0 {
                    FleetScheme::Cbs { samples, .. }
                    | FleetScheme::NiCbs { samples, .. }
                    | FleetScheme::Naive { samples } => samples as u64,
                    FleetScheme::Ringer { ringers } => ringers as u64,
                    // An honest replica disagrees with every guessed
                    // result; surviving needs every guess right (q = 0).
                    FleetScheme::DoubleCheck => return 0.0,
                };
                if crash > 0.0 {
                    cheat_success_probability_under_churn(
                        CHEATER_HONESTY,
                        0.0,
                        checks,
                        crash,
                        self.config.retries,
                    )
                } else {
                    cheat_success_probability(CHEATER_HONESTY, 0.0, checks)
                }
            })
            .sum()
    }
}

/// Cycles the five fleet schemes until exactly [`FLEET_SLOTS`] slots are
/// filled (double-check takes two), planting one cheater per
/// [`CHEAT_EVERY`] members. The cheater's offset within its block of 100
/// advances by one each block, so the cheaters rotate through all five
/// schemes.
fn fleet_roster(kinds: &[FleetScheme; 5]) -> Vec<Member> {
    let mut roster = Vec::new();
    let mut slots = 0;
    while slots < FLEET_SLOTS {
        let i = roster.len();
        let mut scheme = i % kinds.len();
        if slots + kinds[scheme].slots() > FLEET_SLOTS {
            scheme = 0;
        }
        let block = i / CHEAT_EVERY;
        let cheater = i % CHEAT_EVERY == CHEAT_EVERY - kinds.len() + block % kinds.len();
        slots += kinds[scheme].slots();
        roster.push(Member { scheme, cheater });
    }
    roster
}

/// The journal facts of one durable campaign.
pub struct JournalRun {
    pub resume_ms: f64,
    pub verify_ms: f64,
}

/// What one campaign produced.
pub struct Campaign {
    pub summary: FleetSummary,
    pub digest: String,
    pub wall_ms: f64,
    pub journal: Option<JournalRun>,
}

/// Runs one campaign over `backend`. A durable campaign (journal path
/// given) journals to a fresh file, then resumes it read-only and
/// verifies its seal; both are part of the campaign's time.
pub fn run<H: HashFunction, T: ComputeTask>(
    inputs: &Inputs,
    members: &[MemberSpec<'_, H>],
    task: &T,
    config: &MixedFleetConfig,
    backend: &mut dyn TransportBackend,
    journal: Option<&Path>,
) -> Result<Campaign, String> {
    if let Some(path) = journal {
        // A leftover from the previous campaign; absence is fine.
        let _ = std::fs::remove_file(path);
    }
    let start = clock::now();
    let (summary, journal_run) = match journal {
        None => (
            run_mixed_fleet_on(
                task,
                &inputs.screener,
                inputs.domain,
                members,
                config,
                backend,
            )
            .map_err(|e| format!("campaign failed: {e}"))?,
            None,
        ),
        Some(path) => {
            let header = CampaignHeader::for_campaign(
                members,
                inputs.domain,
                config,
                inputs.workload.name().as_bytes().to_vec(),
            );
            let mut campaign = DurableCampaign::create(path, header, CrashPlan::never())
                .map_err(|e| format!("journal create failed: {e}"))?;
            let summary = run_durable_fleet_on(
                task,
                &inputs.screener,
                inputs.domain,
                members,
                config,
                &mut campaign,
                backend,
            )
            .map_err(|e| format!("durable campaign failed: {e}"))?;
            drop(campaign);
            let digest = summary_digest(&summary);
            let resume_start = clock::now();
            let (_, report) = trace::span(Layer::Journal, || {
                DurableCampaign::resume(path, CrashPlan::never())
            })
            .map_err(|e| format!("journal resume failed: {e}"))?;
            let verify_start = clock::now();
            trace::span(Layer::Journal, || verify_journal(path))
                .map_err(|e| format!("journal verify failed: {e}"))?;
            let verify_end = clock::now();
            if !report.sealed || report.finished_digest.as_deref() != Some(digest.as_str()) {
                return Err(format!(
                    "resumed journal does not attest the campaign digest \
                     (sealed {}, journaled {:?}, ran {digest})",
                    report.sealed, report.finished_digest
                ));
            }
            let run = JournalRun {
                resume_ms: clock::ms(verify_start.duration_since(resume_start)),
                verify_ms: clock::ms(verify_end.duration_since(verify_start)),
            };
            (summary, Some(run))
        }
    };
    let wall_ms = clock::ms(start.elapsed());
    let digest = summary_digest(&summary);
    Ok(Campaign {
        summary,
        digest,
        wall_ms,
        journal: journal_run,
    })
}

/// Checks one campaign's verdicts: every honest member accepted, every
/// planted cheater rejected.
pub fn check_verdicts(inputs: &Inputs, summary: &FleetSummary) -> Result<(), String> {
    if summary.members.len() != inputs.member_count() {
        return Err(format!(
            "{} members reported, {} expected",
            summary.members.len(),
            inputs.member_count()
        ));
    }
    for member in &summary.members {
        let cheater = inputs.is_cheater(member.participant);
        if member.outcome.accepted == cheater {
            return Err(format!(
                "member {} ({}) was {} after {} attempt(s): {}",
                member.participant,
                if cheater { "planted cheater" } else { "honest" },
                if member.outcome.accepted {
                    "accepted"
                } else {
                    "rejected"
                },
                member.attempts,
                member.outcome.verdict
            ));
        }
    }
    Ok(())
}
