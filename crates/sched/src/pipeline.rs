//! The four-step scheduling pipeline of Figure 6.
//!
//! 1. **Subgraph identification** — enumerate the k-cliques of the 50 ms
//!    site graph and rank them by the coefficient of variation of their
//!    combined generation (steadiest first). Delegates to `vb-net`.
//! 2. **Subgraph selection** — keep a short candidate list; the
//!    experiments operate on the top-ranked clique (the paper likewise
//!    evaluates one multi-VB group).
//! 3. **Site selection** — per-application assignment inside the chosen
//!    subgraph, done by a [`crate::policy::Policy`] (greedy or MIP).
//! 4. **VM placement** — packing VMs onto servers within a site;
//!    "any state-of-the-art approach can be used for this step" — the
//!    workspace uses `vb-cluster`'s Protean-style best-fit.

use serde::{Deserialize, Serialize};
use vb_net::{k_cliques, rank_cliques_by_cov, CliqueScore, SiteGraph};
use vb_stats::TimeSeries;
use vb_trace::{Catalog, TraceError};

/// Pipeline knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Clique size (paper: k = 2 to 5).
    pub k: usize,
    /// RTT threshold for graph edges, ms (paper: 50).
    pub latency_threshold_ms: f64,
    /// How many candidate subgraphs to keep after ranking.
    pub candidates: usize,
    /// Day-of-year the ranking window starts at.
    pub start_day: u32,
    /// Length of the ranking window in days (the paper ranks over 3-day
    /// intervals).
    pub window_days: u32,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            k: 3,
            latency_threshold_ms: 50.0,
            candidates: 10,
            start_day: 120,
            window_days: 3,
        }
    }
}

/// Step 1 + 2: enumerate k-cliques of the latency graph and return the
/// `candidates` steadiest ones (lowest combined cov first), ranked on
/// the catalog's own traces: each site's measured data when it carries
/// some, the synthetic generator otherwise.
///
/// # Errors
/// The first [`TraceError`] in catalog order when some site's measured
/// data is not 15-minute or does not cover the ranking window.
pub fn identify_subgraphs(
    catalog: &Catalog,
    cfg: &PipelineConfig,
) -> Result<Vec<CliqueScore>, TraceError> {
    let graph = SiteGraph::build(catalog.sites().to_vec(), cfg.latency_threshold_ms);
    let cliques = k_cliques(&graph, cfg.k);
    let sites = catalog.sites();
    let traces: Vec<TimeSeries> = vb_par::par_map(sites.len(), |i| {
        let s = &sites[i];
        catalog
            .try_trace(&s.name, cfg.start_day, cfg.window_days)
            .map(|t| t.scale(s.capacity_mw))
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    let mut ranked = rank_cliques_by_cov(&graph, &cliques, &traces);
    ranked.truncate(cfg.candidates);
    Ok(ranked)
}

/// Convenience: the names of the sites in the top-ranked k-clique — the
/// multi-VB group the experiments run on.
///
/// # Panics
/// Panics if the graph has no k-clique at all, or if some site's
/// measured data does not cover the ranking window
/// ([`identify_subgraphs`] returns that as an error).
pub fn select_group(catalog: &Catalog, cfg: &PipelineConfig) -> Vec<String> {
    // vb-audit: allow(no-panic, documented `# Panics` contract of this convenience API)
    let ranked = identify_subgraphs(catalog, cfg).unwrap_or_else(|e| panic!("{e}"));
    // vb-audit: allow(no-panic, documented `# Panics` contract of this convenience API)
    let best = ranked.first().expect("no k-clique in the site graph");
    best.nodes
        .iter()
        .map(|&i| catalog.sites()[i].name.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identifies_and_ranks_candidates() {
        let catalog = Catalog::europe(42);
        let cfg = PipelineConfig {
            candidates: 5,
            ..PipelineConfig::default()
        };
        let ranked = identify_subgraphs(&catalog, &cfg).unwrap();
        assert_eq!(ranked.len(), 5);
        // Ascending cov, all within the latency threshold.
        for w in ranked.windows(2) {
            assert!(w[0].cov <= w[1].cov + 1e-12);
        }
        for c in &ranked {
            assert_eq!(c.nodes.len(), 3);
            assert!(c.diameter_ms < 50.0);
        }
    }

    #[test]
    fn top_group_is_steadier_than_typical_singles() {
        let catalog = Catalog::europe(42);
        let cfg = PipelineConfig::default();
        let ranked = identify_subgraphs(&catalog, &cfg).unwrap();
        let best = &ranked[0];
        // The best 3-clique's combined cov must beat the median single
        // site's cov (that's the whole point of aggregation).
        let singles: Vec<f64> = catalog
            .sites()
            .iter()
            .map(|s| {
                let t = vb_trace::generate_in(s, cfg.start_day, cfg.window_days, catalog.field());
                vb_stats::coefficient_of_variation(&t.values)
            })
            .collect();
        let median_single = vb_stats::percentile(&singles, 50.0);
        assert!(
            best.cov < median_single,
            "best clique cov {} vs median single {}",
            best.cov,
            median_single
        );
    }

    #[test]
    fn select_group_returns_k_site_names() {
        let catalog = Catalog::europe(42);
        let names = select_group(&catalog, &PipelineConfig::default());
        assert_eq!(names.len(), 3);
        for n in &names {
            assert!(catalog.get(n).is_some());
        }
    }

    /// FNV-1a over every candidate's nodes and the bit patterns of its
    /// scores.
    fn ranking_digest(ranked: &[CliqueScore]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |word: u64| {
            for b in word.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for c in ranked {
            eat(c.nodes.len() as u64);
            for &n in &c.nodes {
                eat(n as u64);
            }
            eat(c.cov.to_bits());
            eat(c.diameter_ms.to_bits());
        }
        h
    }

    const RANKING_DIGEST: u64 = 0x6366_c854_9433_92ae;

    #[test]
    fn synthetic_ranking_is_unchanged_by_routing_through_the_catalog() {
        // Pinned while the ranking still called the synthetic generator
        // directly: a catalog without measured data must not move a bit.
        let ranked = identify_subgraphs(&Catalog::europe(42), &PipelineConfig::default()).unwrap();
        let h = ranking_digest(&ranked);
        assert_eq!(h, RANKING_DIGEST, "ranking digest moved: {h:#018x}");
    }

    /// `Catalog::europe(42)` with each site's synthetic ranking window
    /// stored as measured data, and site `zeroed` (if any) reading 0.
    fn measured_europe(zeroed: Option<usize>) -> Catalog {
        let cfg = PipelineConfig::default();
        let synthetic = Catalog::europe(42);
        let mut traces = synthetic.traces(cfg.start_day, cfg.window_days);
        if let Some(i) = zeroed {
            traces[i].values.fill(0.0);
        }
        Catalog::from_measured(synthetic.sites().to_vec(), traces, 42)
    }

    #[test]
    fn measured_catalogs_rank_on_their_own_traces() {
        let cfg = PipelineConfig::default();
        let synthetic = identify_subgraphs(&Catalog::europe(42), &cfg).unwrap();
        let same = identify_subgraphs(&measured_europe(None), &cfg).unwrap();
        assert_eq!(same, synthetic, "identical data must rank identically");
        // Zero a member of the steadiest clique: the ranking must move.
        let zeroed =
            identify_subgraphs(&measured_europe(Some(synthetic[0].nodes[0])), &cfg).unwrap();
        assert_ne!(zeroed, synthetic, "a zeroed site must change the ranking");
        // A window the measured data does not cover is an error, not a
        // silent fall-back to the generator.
        let late = PipelineConfig {
            start_day: cfg.start_day + 1,
            ..cfg
        };
        assert_eq!(
            identify_subgraphs(&measured_europe(None), &late),
            Err(TraceError::EndsBeforeWindow("NO-solar".into()))
        );
    }

    #[test]
    fn larger_k_gives_steadier_or_equal_best_groups() {
        // More sites to average over cannot hurt the best cov much; in
        // practice k=4's best is steadier than k=2's best.
        let catalog = Catalog::europe(42);
        let cov_for = |k: usize| {
            let cfg = PipelineConfig {
                k,
                ..PipelineConfig::default()
            };
            identify_subgraphs(&catalog, &cfg).unwrap()[0].cov
        };
        assert!(cov_for(4) <= cov_for(2) + 0.05);
    }
}
