//! The benchmark's workloads: which cipher instances, at which size, under
//! which engine configuration. README.md gives the reasons for each choice.

use bosphorus::BosphorusConfig;
use bosphorus_anf::{Assignment, PolynomialSystem};
use bosphorus_ciphers::bitcoin::{self, BitcoinParams};
use bosphorus_ciphers::simon::{self, SimonParams};
use rand::rngs::StdRng;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Simon32/64 key recovery, 16 plaintexts × 4 rounds, `paper` preset:
    /// XL and GF(2) elimination decide every instance.
    SimonPaper,
    /// SHA-256 nonce search, difficulty 1, 20 rounds, `default` preset: the
    /// driver's ANF propagation over ~4k equations dominates.
    Bitcoin,
}

/// A generated instance and, when the generator knows one, a satisfying
/// assignment of it.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The polynomial system handed to both paths.
    pub system: PolynomialSystem,
    /// The generator's witness; `Some` means the instance is satisfiable.
    pub witness: Option<Assignment>,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 2] = [Workload::SimonPaper, Workload::Bitcoin];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimonPaper => "simon-16-4-paper",
            Workload::Bitcoin => "bitcoin-1-r20",
        }
    }

    /// Looks a workload up by its name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many instances one run generates and solves: enough that the sum
    /// over instances varies little from seed to seed, and few enough that
    /// a 60-s run solves each of them several times (about 25 and 6 times
    /// on a 2-CPU host), so per-instance medians average out the host.
    pub fn instances(self) -> usize {
        match self {
            Workload::SimonPaper => 60,
            Workload::Bitcoin => 40,
        }
    }

    /// The engine configuration: the CLI's `paper` or `default` preset, with
    /// elimination on one thread.
    pub fn config(self) -> BosphorusConfig {
        let preset = match self {
            Workload::SimonPaper => BosphorusConfig::paper_defaults(),
            Workload::Bitcoin => BosphorusConfig::default(),
        };
        BosphorusConfig {
            threads: 1,
            ..preset
        }
    }

    /// Generates one instance from `rng`.
    pub fn generate(self, rng: &mut StdRng) -> Instance {
        match self {
            Workload::SimonPaper => {
                let instance = simon::generate(
                    SimonParams {
                        num_plaintexts: 16,
                        rounds: 4,
                    },
                    rng,
                );
                Instance {
                    system: instance.system,
                    witness: Some(instance.witness),
                }
            }
            Workload::Bitcoin => {
                let instance = bitcoin::generate(
                    BitcoinParams {
                        difficulty: 1,
                        rounds: 20,
                    },
                    rng,
                );
                // `generate` retries until it finds a nonce, so the encoder's
                // witness is always a proof of work.
                let witness = instance
                    .solution_nonce
                    .map(|_| instance.encoding.witness.clone());
                Instance {
                    system: instance.system,
                    witness,
                }
            }
        }
    }
}
