//! The benchmark's inputs: datasets generated from the seed, the queries
//! asked of them, and the three traffic mixes.
//!
//! Every workload runs against one catalog that hosts every dataset any
//! workload uses, so set-up time and memory are comparable across
//! workloads. The program sees only the generated XML text.

use std::collections::BTreeMap;

use gql_ssdm::generator::{
    bibliography, cityguide, greengrocer, webgraph, BibConfig, CityConfig, GrocerConfig, WebConfig,
};

use crate::oracle::{self, Expected, Question, Reply};
use crate::xml::parse_root;

/// The dataset every `reload` swaps, alternating between two seeds.
pub const RELOAD_DATASET: &str = "bib-large";

/// Served-small rounds between two reloads in `reload-churn`. Four rounds
/// make each cold query after a reload 2.2% of all queries, so
/// `latency_p99_us` falls inside the slowest cold query's latencies rather
/// than on the edge between two populations.
pub const CHURN_ROUNDS_PER_RELOAD: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lang {
    XmlGl,
    WgLog,
    XPath,
}

impl Lang {
    pub const ALL: [Lang; 3] = [Lang::XmlGl, Lang::WgLog, Lang::XPath];

    /// The wire `kind` and the metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Lang::XmlGl => "xmlgl",
            Lang::WgLog => "wglog",
            Lang::XPath => "xpath",
        }
    }
}

/// One query of a mix.
#[derive(Debug, Clone, Copy)]
pub struct QuerySpec {
    pub label: &'static str,
    pub dataset: &'static str,
    pub lang: Lang,
    pub text: &'static str,
    pub question: Question,
    pub reply: Reply,
}

const F1: &str = "rule { query { $r: restaurant  $m: menu  $r -menu-> $m } \
                  construct { $l: rest-list  $l -member-> $r } } goal rest-list";
const F4: &str =
    "rule { extract { person { firstname { text as $f } lastname { text as $l } fulladdr } } \
                  construct { RESULT { entry { first { copy $f } last { copy $l } } } } }";
const F5: &str = "rule { extract { product as $p { name vendor { text as $v1 } } \
                  vendors { vendor { country { text = \"holland\" } name { text as $v2 } } } \
                  join $v1 == $v2 } construct { dutch-products { all $p } } }";
const Q6: &str = "rule { extract { product as $p { vendor { text as $v1 } } \
                  vendor { country { text = \"holland\" } name { text as $v2 } } \
                  join $v1 == $v2 } construct { answer { all $p } } }";
const ROOT_LINK: &str = "rule { query { $d: doc  $i: index  not $d -index-> $i } \
                         construct { $roots: root-list  $roots -root-> $d } } goal root-list";
const AUTHORS: &str = "rule { query { $b: book  $a: author  $b -author-> $a } \
                       construct { $l: author-list  $l -member-> $a } } goal author-list";
const REACHES: &str = "rule { query { $a: doc  $l: link  $b: doc  $a -link-> $l  $l -ref-> $b } \
                       construct { $a -reaches-> $b } } \
                       rule { query { $a: doc  $b: doc  $c: doc  $a -reaches-> $b  $b -reaches-> $c } \
                       construct { $a -reaches-> $c } } goal doc";
const XP_MENU: &str = "//restaurant[menu]";
const XP_FULLADDR: &str = "//person[fulladdr]";
const XP_DUTCH: &str = "//products/product[vendor = //vendors/vendor[country='holland']/name]";
const XP_NO_INDEX: &str = "//doc[not(index)]";
const XP_TITLES: &str = "//book/title";
const XP_RECENT: &str = "//book[@year > 2015]/title";

const fn q(
    label: &'static str,
    dataset: &'static str,
    lang: Lang,
    text: &'static str,
    question: Question,
    reply: Reply,
) -> QuerySpec {
    QuerySpec {
        label,
        dataset,
        lang,
        text,
        question,
        reply,
    }
}

use Lang::{WgLog, XPath, XmlGl};
use Question::*;
use Reply::*;

/// The served-small mix: the paper's figure queries over the four
/// generator-default datasets, each question also asked in XPath.
/// Three XML-GL, three WG-Log and five XPath queries: odd counts keep each
/// per-language median inside one query's latencies.
pub const SERVED_SMALL: [QuerySpec; 11] = [
    q("f4", "bib", XmlGl, F4, PersonsWithFulladdr, XmlGlEntries),
    q("f5", "grocer", XmlGl, F5, DutchProducts, XmlGlWrapper),
    q("q6", "grocer", XmlGl, Q6, DutchProducts, XmlGlWrapper),
    q("f1", "city", WgLog, F1, RestaurantsWithMenu, WgLogList),
    q(
        "root_link",
        "web",
        WgLog,
        ROOT_LINK,
        DocsWithoutIndex,
        WgLogList,
    ),
    q("authors", "bib", WgLog, AUTHORS, BookAuthors, WgLogList),
    q(
        "xp_menu",
        "city",
        XPath,
        XP_MENU,
        RestaurantsWithMenu,
        XPathItems,
    ),
    q(
        "xp_fulladdr",
        "bib",
        XPath,
        XP_FULLADDR,
        PersonsWithFulladdr,
        XPathItems,
    ),
    q(
        "xp_dutch",
        "grocer",
        XPath,
        XP_DUTCH,
        DutchProducts,
        XPathItems,
    ),
    q(
        "xp_no_index",
        "web",
        XPath,
        XP_NO_INDEX,
        DocsWithoutIndex,
        XPathItems,
    ),
    q("xp_titles", "bib", XPath, XP_TITLES, BookTitles, XPathItems),
];

/// The engine-large mix: value join, projection, WG-Log lists and a
/// recursive closure over the large datasets, plus XPath descendant and
/// predicate paths.
pub const ENGINE_LARGE: [QuerySpec; 9] = [
    q("q6", "grocer-large", XmlGl, Q6, DutchProducts, XmlGlWrapper),
    q("f5", "grocer-large", XmlGl, F5, DutchProducts, XmlGlWrapper),
    q(
        "f4",
        "bib-large",
        XmlGl,
        F4,
        PersonsWithFulladdr,
        XmlGlEntries,
    ),
    q(
        "f1",
        "city-large",
        WgLog,
        F1,
        RestaurantsWithMenu,
        WgLogList,
    ),
    q(
        "authors",
        "bib-large",
        WgLog,
        AUTHORS,
        BookAuthors,
        WgLogList,
    ),
    q(
        "reaches",
        "web-reach",
        WgLog,
        REACHES,
        Reaches,
        WgLogReaches,
    ),
    q(
        "xp_menu",
        "city-large",
        XPath,
        XP_MENU,
        RestaurantsWithMenu,
        XPathItems,
    ),
    q(
        "xp_dutch",
        "grocer-large",
        XPath,
        XP_DUTCH,
        DutchProducts,
        XPathItems,
    ),
    q(
        "xp_recent",
        "bib-large",
        XPath,
        XP_RECENT,
        RecentBookTitles,
        XPathItems,
    ),
];

/// Asked of the reloaded dataset right after every reload in
/// `reload-churn`: each runs with the fresh engine's empty plan cache.
pub const AFTER_RELOAD: [QuerySpec; 2] = [
    q(
        "f4",
        RELOAD_DATASET,
        XmlGl,
        F4,
        PersonsWithFulladdr,
        XmlGlEntries,
    ),
    q(
        "xp_fulladdr",
        RELOAD_DATASET,
        XPath,
        XP_FULLADDR,
        PersonsWithFulladdr,
        XPathItems,
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServedSmall,
    EngineLarge,
    ReloadChurn,
}

/// One operation of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Index into [`Workload::queries`].
    Query(usize),
    /// Wire reload of [`RELOAD_DATASET`] to the other seed's document.
    Reload,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServedSmall,
        Workload::EngineLarge,
        Workload::ReloadChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServedSmall => "served-small",
            Workload::EngineLarge => "engine-large",
            Workload::ReloadChurn => "reload-churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the service's workers run on every CPU the process started
    /// with, rather than on the one CPU the client and the server's threads
    /// are pinned to.
    ///
    /// engine-large: its value joins and projection have 600 to 2,000 root
    /// candidates, which the XML-GL matcher splits over as many threads as
    /// its thread may use; pinned, it would measure a sequential matcher the
    /// deployment does not run. Its requests take milliseconds, so the
    /// cross-CPU hand-offs to and from a worker are a small share of them.
    /// The other mixes are pinned whole: their requests are a few hundred
    /// microseconds, where cross-CPU hand-offs under hypervisor steal made
    /// identical runs disagree by up to 2x (served-small's roots have 60
    /// candidates at most, under the matcher's threshold of 64).
    pub fn workers_on_all_cpus(self) -> bool {
        self == Workload::EngineLarge
    }

    /// Every query the workload asks; [`Op::Query`] indexes this list.
    pub fn queries(self) -> Vec<QuerySpec> {
        match self {
            Workload::ServedSmall => SERVED_SMALL.to_vec(),
            Workload::EngineLarge => ENGINE_LARGE.to_vec(),
            Workload::ReloadChurn => AFTER_RELOAD.iter().chain(&SERVED_SMALL).copied().collect(),
        }
    }

    /// One round: the operations every timed iteration repeats whole.
    pub fn round(self) -> Vec<Op> {
        match self {
            Workload::ServedSmall => (0..SERVED_SMALL.len()).map(Op::Query).collect(),
            Workload::EngineLarge => (0..ENGINE_LARGE.len()).map(Op::Query).collect(),
            Workload::ReloadChurn => {
                let mut ops = vec![Op::Reload];
                ops.extend((0..AFTER_RELOAD.len()).map(Op::Query));
                for _ in 0..CHURN_ROUNDS_PER_RELOAD {
                    ops.extend((0..SERVED_SMALL.len()).map(|i| Op::Query(AFTER_RELOAD.len() + i)));
                }
                ops
            }
        }
    }
}

/// splitmix64: derives every dataset seed from the run's `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn large_bib(seed: u64) -> String {
    bibliography(BibConfig {
        books: 2000,
        people: 600,
        seed,
    })
    .to_xml_string()
}

/// Generate dataset `name` for `seed` as XML text.
fn generate(name: &str, seed: u64) -> String {
    let doc = match name {
        "bib" => bibliography(BibConfig {
            seed,
            ..BibConfig::default()
        }),
        "city" => cityguide(CityConfig {
            seed,
            ..CityConfig::default()
        }),
        "grocer" => greengrocer(GrocerConfig {
            seed,
            ..GrocerConfig::default()
        }),
        "web" => webgraph(WebConfig {
            seed,
            ..WebConfig::default()
        }),
        RELOAD_DATASET => return large_bib(seed),
        // Queried by no mix: a catalog also hosts data the traffic does
        // not touch. It brings the catalog to a few MB of XML, so set-up
        // takes long enough (about 0.3 s) to repeat between runs; at about
        // 1.1 MB set-up took under 0.1 s and its median over nine set-ups
        // spread up to 30% over ten runs.
        ARCHIVE_DATASET => bibliography(BibConfig {
            books: 9000,
            people: 2700,
            seed,
        }),
        "city-large" => cityguide(CityConfig {
            restaurants: 500,
            hotels: 60,
            seed,
        }),
        "grocer-large" => greengrocer(GrocerConfig {
            products: 2000,
            vendors: 8,
            seed,
        }),
        // Small on purpose: the closure's reply grows with the cube of the
        // document count and must stay under the 1 MiB frame cap (at most
        // 12 x 12 reached documents of under 1 KB each). Three links per
        // document make the closure nearly complete on every seed, and at
        // this size it stays the fastest WG-Log query of engine-large, so
        // `wglog_p50_us` reads F1 and not the graph's shape.
        "web-reach" => webgraph(WebConfig {
            docs: 12,
            links_per_doc: 3,
            index_percent: 30,
            seed,
        }),
        other => panic!("unknown dataset {other}"),
    };
    doc.to_xml_string()
}

/// A large dataset registered at set-up and queried by no mix.
pub const ARCHIVE_DATASET: &str = "bib-archive";

/// Catalog dataset names, in registration order.
pub const DATASETS: [&str; 9] = [
    "bib",
    "city",
    "grocer",
    "web",
    RELOAD_DATASET,
    "city-large",
    "grocer-large",
    "web-reach",
    ARCHIVE_DATASET,
];

/// Everything one run needs, derived from `--seed` alone.
pub struct Inputs {
    /// (name, XML text) in registration order.
    pub datasets: Vec<(&'static str, String)>,
    /// [`RELOAD_DATASET`] generated from the second seed.
    pub reload_alt: String,
    /// Expected answers per (query label, dataset, document version);
    /// version 0 is the registered document, 1 the reload alternate.
    pub expected: BTreeMap<(&'static str, &'static str, u8), Expected>,
    /// Element count of each registered dataset, in registration order.
    pub elements: Vec<usize>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Result<Inputs, String> {
        let datasets: Vec<(&'static str, String)> = DATASETS
            .iter()
            .enumerate()
            .map(|(i, &name)| (name, generate(name, mix(seed, i as u64 + 1))))
            .collect();
        let reload_alt = large_bib(mix(seed, 101));
        let mut roots = BTreeMap::new();
        for (name, xml) in &datasets {
            roots.insert((*name, 0u8), parse_root(xml)?);
        }
        roots.insert((RELOAD_DATASET, 1u8), parse_root(&reload_alt)?);
        let elements = datasets
            .iter()
            .map(|(name, _)| roots[&(*name, 0u8)].element_count())
            .collect();
        let mut expected = BTreeMap::new();
        for w in Workload::ALL {
            for spec in w.queries() {
                for version in [0u8, 1] {
                    let Some(root) = roots.get(&(spec.dataset, version)) else {
                        continue;
                    };
                    let want = oracle::expected(spec.question, spec.reply, root);
                    if want.keys.is_empty() {
                        return Err(format!(
                            "{} on {} v{version} has an empty expected answer",
                            spec.label, spec.dataset
                        ));
                    }
                    expected.insert((spec.label, spec.dataset, version), want);
                }
            }
        }
        for spec in AFTER_RELOAD {
            if expected[&(spec.label, spec.dataset, 0)] == expected[&(spec.label, spec.dataset, 1)]
            {
                return Err(format!(
                    "{} answers the same on both reload seeds",
                    spec.label
                ));
            }
        }
        Ok(Inputs {
            datasets,
            reload_alt,
            expected,
            elements,
        })
    }

    /// The registered XML of `name`.
    pub fn xml(&self, name: &str) -> &str {
        &self
            .datasets
            .iter()
            .find(|(n, _)| *n == name)
            .expect("known dataset")
            .1
    }

    pub fn expected_for(&self, spec: &QuerySpec, version: u8) -> &Expected {
        &self.expected[&(spec.label, spec.dataset, version)]
    }

    /// Total XML bytes registered at set-up.
    pub fn catalog_bytes(&self) -> usize {
        self.datasets.iter().map(|(_, x)| x.len()).sum()
    }
}

/// Queries of one workload that ask the same question of the same dataset
/// (in two languages, or twice in XML-GL as F5 and Q6), paired by query
/// index: their replies must hold the same node set.
pub fn cross_language_pairs(queries: &[QuerySpec]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for (i, a) in queries.iter().enumerate() {
        for (j, b) in queries.iter().enumerate().skip(i + 1) {
            if a.dataset == b.dataset && a.question == b.question {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let a = Inputs::generate(3).unwrap();
        let b = Inputs::generate(3).unwrap();
        let c = Inputs::generate(4).unwrap();
        for ((name, xa), ((_, xb), (_, xc))) in
            a.datasets.iter().zip(b.datasets.iter().zip(&c.datasets))
        {
            assert_eq!(xa, xb, "{name} differs for one seed");
            assert_ne!(xa, xc, "{name} repeats across seeds");
        }
        assert_eq!(a.reload_alt, b.reload_alt);
        assert_ne!(a.reload_alt, c.reload_alt);
        assert_ne!(a.reload_alt, a.xml(RELOAD_DATASET));
    }

    #[test]
    fn every_reply_fits_the_frame_cap() {
        let inputs = Inputs::generate(1).unwrap();
        // The reload request carries the XML JSON-escaped; leave headroom.
        assert!(inputs.reload_alt.len() + 64 * 1024 < gql_serve::proto::MAX_FRAME);
        assert!(inputs.xml(RELOAD_DATASET).len() + 64 * 1024 < gql_serve::proto::MAX_FRAME);
    }

    #[test]
    fn every_language_rotates_an_odd_number_of_queries() {
        // Equal weights over an odd number of queries put each language's
        // median inside one query's latencies, not on a gap between two.
        for mix in [&SERVED_SMALL[..], &ENGINE_LARGE[..]] {
            for lang in Lang::ALL {
                let n = mix.iter().filter(|q| q.lang == lang).count();
                assert_eq!(n % 2, 1, "{} count {n}", lang.name());
            }
        }
        let churn = Workload::ReloadChurn.round();
        assert_eq!(churn.iter().filter(|op| **op == Op::Reload).count(), 1);
        assert_eq!(
            churn.len(),
            1 + AFTER_RELOAD.len() + CHURN_ROUNDS_PER_RELOAD * SERVED_SMALL.len()
        );
        assert_eq!(cross_language_pairs(&SERVED_SMALL).len(), 6);
    }
}
