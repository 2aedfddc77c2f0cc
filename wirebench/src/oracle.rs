//! Expected answers computed without the program.
//!
//! Every question is answered by walking the generated input document
//! (read with the benchmark's own [`crate::xml`] reader) with plain loops:
//! no query engine, index, planner or reference evaluator is involved. A
//! reply is read the same way and reduced to the same kind of keys, so a
//! check is a comparison of two sorted key lists plus the reply's
//! `result_count`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::xml::{parse_forest, Elem};

/// The question a query asks, independent of the language it is asked in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Question {
    /// City guide: ids of restaurants offering at least one menu (F1).
    RestaurantsWithMenu,
    /// Bibliography: (first, last) names of persons with a full address (F4).
    PersonsWithFulladdr,
    /// Greengrocer: products sold by a vendor from holland (F5, Q6).
    DutchProducts,
    /// Web graph: ids of documents without an `index` reference.
    DocsWithoutIndex,
    /// Bibliography: (first, last) names of every book author.
    BookAuthors,
    /// Bibliography: titles of every book.
    BookTitles,
    /// Bibliography: titles of books published after 2015.
    RecentBookTitles,
    /// Web graph: every `a>b` pair where `b` is reachable from `a` over
    /// one or more `link/@ref` steps (the recursive `reaches` rule).
    Reaches,
}

/// How a reply's `xml` field holds the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// XPath: `<answer>` holding a copy of each selected node; the
    /// result count is the number of nodes.
    XPathItems,
    /// WG-Log goal list: `<answer><LIST>` with one member object per
    /// answer; the result count is the single goal object.
    WgLogList,
    /// XML-GL with one constructed root per binding (F4's `RESULT`
    /// holding `entry`); the result count is the number of roots.
    XmlGlEntries,
    /// XML-GL with one constructed wrapper holding `all $p` copies
    /// (F5, Q6); the result count is the single wrapper.
    XmlGlWrapper,
    /// WG-Log `reaches` closure with goal `doc`: one element per document,
    /// whose direct `doc` children are the documents it reaches.
    WgLogReaches,
}

/// What a correct reply must contain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub result_count: u64,
    /// Sorted answer keys (a multiset: duplicates are kept).
    pub keys: Vec<String>,
}

fn first_of<'a>(e: &'a Elem, names: &[&str]) -> &'a str {
    names
        .iter()
        .find_map(|n| e.kid(n).map(|c| c.text.as_str()))
        .unwrap_or("")
}

/// The key of one answer element. Inputs, XPath copies and WG-Log objects
/// spell the same datum differently (an `id` attribute in the document
/// becomes an `id` child of a WG-Log object; F4 renames `firstname` to
/// `first`), so each key reads every spelling.
fn item_key(q: Question, e: &Elem) -> String {
    match q {
        Question::RestaurantsWithMenu | Question::DocsWithoutIndex => e
            .attr("id")
            .map(str::to_string)
            .unwrap_or_else(|| e.kid_text("id").to_string()),
        Question::PersonsWithFulladdr => format!(
            "{}|{}",
            first_of(e, &["firstname", "first"]),
            first_of(e, &["lastname", "last"])
        ),
        Question::BookAuthors => {
            format!("{}|{}", e.kid_text("first-name"), e.kid_text("last-name"))
        }
        Question::DutchProducts => {
            let price = e.kid("price");
            format!(
                "{}|{}|{}|{}|{}",
                e.kid_text("type"),
                e.kid_text("name"),
                price.map(|p| p.kid_text("unit")).unwrap_or(""),
                price.map(|p| p.kid_text("value")).unwrap_or(""),
                e.kid_text("vendor")
            )
        }
        Question::BookTitles | Question::RecentBookTitles => e.text.clone(),
        Question::Reaches => unreachable!("reaches keys are pairs, not items"),
    }
}

fn sorted(mut keys: Vec<String>) -> Vec<String> {
    keys.sort();
    keys
}

/// Answer `q` over the generated input document `root`.
pub fn expected(q: Question, reply: Reply, root: &Elem) -> Expected {
    let items: Vec<&Elem> = match q {
        Question::RestaurantsWithMenu => root
            .kids("restaurant")
            .filter(|r| r.kid("menu").is_some())
            .collect(),
        Question::PersonsWithFulladdr => root
            .kids("people")
            .flat_map(|p| p.kids("person"))
            .filter(|p| p.kid("fulladdr").is_some())
            .collect(),
        Question::DutchProducts => {
            let dutch: BTreeSet<&str> = root
                .kids("vendors")
                .flat_map(|v| v.kids("vendor"))
                .filter(|v| v.kid_text("country") == "holland")
                .map(|v| v.kid_text("name"))
                .collect();
            root.kids("products")
                .flat_map(|p| p.kids("product"))
                .filter(|p| dutch.contains(p.kid_text("vendor")))
                .collect()
        }
        Question::DocsWithoutIndex => root
            .kids("doc")
            .filter(|d| d.kid("index").is_none())
            .collect(),
        Question::BookAuthors => root
            .kids("books")
            .flat_map(|b| b.kids("book"))
            .flat_map(|b| b.kids("author"))
            .collect(),
        Question::BookTitles | Question::RecentBookTitles => root
            .kids("books")
            .flat_map(|b| b.kids("book"))
            .filter(|b| {
                q == Question::BookTitles
                    || b.attr("year")
                        .and_then(|y| y.parse::<u32>().ok())
                        .is_some_and(|y| y > 2015)
            })
            .flat_map(|b| b.kids("title"))
            .collect(),
        Question::Reaches => {
            let docs: Vec<&Elem> = root.kids("doc").collect();
            return Expected {
                result_count: docs.len() as u64,
                keys: sorted(reaches_pairs(&docs)),
            };
        }
    };
    let keys = sorted(items.iter().map(|e| item_key(q, e)).collect());
    let result_count = match reply {
        Reply::XPathItems | Reply::XmlGlEntries => keys.len() as u64,
        Reply::WgLogList | Reply::XmlGlWrapper => 1,
        Reply::WgLogReaches => unreachable!("only the reaches question replies this way"),
    };
    Expected { result_count, keys }
}

/// Breadth-first closure over `link/@ref` from every document.
fn reaches_pairs(docs: &[&Elem]) -> Vec<String> {
    let edges: BTreeMap<&str, Vec<&str>> = docs
        .iter()
        .map(|d| {
            let id = d.attr("id").unwrap_or("");
            let targets = d.kids("link").filter_map(|l| l.attr("ref")).collect();
            (id, targets)
        })
        .collect();
    let mut pairs = Vec::new();
    for (&from, direct) in &edges {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut queue: VecDeque<&str> = direct.iter().copied().collect();
        while let Some(next) = queue.pop_front() {
            if seen.insert(next) {
                if let Some(more) = edges.get(next) {
                    queue.extend(more.iter().copied());
                }
            }
        }
        pairs.extend(seen.into_iter().map(|to| format!("{from}>{to}")));
    }
    pairs
}

/// Reduce a reply's `xml` field to the count and sorted keys its shape
/// implies, or say why it has the wrong shape.
pub fn reply_answer(q: Question, reply: Reply, xml: &str) -> Result<Expected, String> {
    let forest = parse_forest(xml)?;
    let only = |name: &str| -> Result<&Elem, String> {
        match forest.as_slice() {
            [e] if e.name == name => Ok(e),
            _ => Err(format!(
                "expected one <{name}> root, got [{}]",
                forest
                    .iter()
                    .map(|e| e.name.as_str())
                    .collect::<Vec<_>>()
                    .join(",")
            )),
        }
    };
    match reply {
        Reply::XPathItems => {
            let answer = only("answer")?;
            let keys = sorted(answer.children.iter().map(|e| item_key(q, e)).collect());
            Ok(Expected {
                result_count: answer.children.len() as u64,
                keys,
            })
        }
        Reply::WgLogList => {
            let answer = only("answer")?;
            let members: Vec<&Elem> = answer.children.iter().flat_map(|l| &l.children).collect();
            Ok(Expected {
                result_count: answer.children.len() as u64,
                keys: sorted(members.iter().map(|e| item_key(q, e)).collect()),
            })
        }
        Reply::XmlGlEntries => {
            let entries: Vec<&Elem> = forest.iter().flat_map(|r| &r.children).collect();
            Ok(Expected {
                result_count: forest.len() as u64,
                keys: sorted(entries.iter().map(|e| item_key(q, e)).collect()),
            })
        }
        Reply::XmlGlWrapper => {
            let items: Vec<&Elem> = forest.iter().flat_map(|w| &w.children).collect();
            Ok(Expected {
                result_count: forest.len() as u64,
                keys: sorted(items.iter().map(|e| item_key(q, e)).collect()),
            })
        }
        Reply::WgLogReaches => {
            let answer = only("answer")?;
            let mut pairs = Vec::new();
            for doc in &answer.children {
                let from = doc.kid_text("id");
                // A node reached twice is one pair: the closure is a set.
                let to: BTreeSet<&str> = doc.kids("doc").map(|d| d.kid_text("id")).collect();
                pairs.extend(to.into_iter().map(|t| format!("{from}>{t}")));
            }
            Ok(Expected {
                result_count: answer.children.len() as u64,
                keys: sorted(pairs),
            })
        }
    }
}

/// Check one reply against the expected answer.
pub fn check(
    q: Question,
    reply: Reply,
    want: &Expected,
    result_count: u64,
    xml: &str,
) -> Result<(), String> {
    let got = reply_answer(q, reply, xml)?;
    if result_count != want.result_count || got.result_count != want.result_count {
        return Err(format!(
            "result_count {result_count} (reply shape says {}), expected {}",
            got.result_count, want.result_count
        ));
    }
    if got.keys != want.keys {
        let missing = want.keys.iter().find(|k| !got.keys.contains(k));
        let extra = got.keys.iter().find(|k| !want.keys.contains(k));
        return Err(format!(
            "{} keys, expected {} (first missing {missing:?}, first unexpected {extra:?})",
            got.keys.len(),
            want.keys.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xml::parse_root;

    const CITY: &str = "<cityguide>\
        <restaurant id=\"r0\"><name>A</name><menu><dish>x</dish></menu></restaurant>\
        <restaurant id=\"r1\"><name>B</name></restaurant>\
        <restaurant id=\"r2\"><name>C</name><menu/><menu/></restaurant></cityguide>";

    #[test]
    fn restaurants_with_menu_match_both_reply_shapes() {
        let root = parse_root(CITY).unwrap();
        let xp = expected(Question::RestaurantsWithMenu, Reply::XPathItems, &root);
        assert_eq!(xp.keys, ["r0", "r2"]);
        assert_eq!(xp.result_count, 2);
        let xpath_reply = "<answer><restaurant id=\"r2\"/><restaurant id=\"r0\"/></answer>";
        check(
            Question::RestaurantsWithMenu,
            Reply::XPathItems,
            &xp,
            2,
            xpath_reply,
        )
        .unwrap();
        let wg = expected(Question::RestaurantsWithMenu, Reply::WgLogList, &root);
        let wglog_reply = "<answer><rest-list><restaurant><id>r0</id></restaurant>\
                           <restaurant><id>r2</id></restaurant></rest-list></answer>";
        check(
            Question::RestaurantsWithMenu,
            Reply::WgLogList,
            &wg,
            1,
            wglog_reply,
        )
        .unwrap();
    }

    #[test]
    fn a_wrong_expected_answer_is_rejected() {
        let root = parse_root(CITY).unwrap();
        let mut wrong = expected(Question::RestaurantsWithMenu, Reply::XPathItems, &root);
        wrong.keys[1] = "r1".into();
        let reply = "<answer><restaurant id=\"r0\"/><restaurant id=\"r2\"/></answer>";
        assert!(check(
            Question::RestaurantsWithMenu,
            Reply::XPathItems,
            &wrong,
            2,
            reply
        )
        .is_err());
        let right = expected(Question::RestaurantsWithMenu, Reply::XPathItems, &root);
        // A count that disagrees with the keys fails too.
        assert!(check(
            Question::RestaurantsWithMenu,
            Reply::XPathItems,
            &right,
            3,
            reply
        )
        .is_err());
        // A reply missing one answer fails.
        let short = "<answer><restaurant id=\"r0\"/></answer>";
        assert!(check(
            Question::RestaurantsWithMenu,
            Reply::XPathItems,
            &right,
            2,
            short
        )
        .is_err());
    }

    #[test]
    fn reaches_is_the_transitive_closure() {
        let web = "<web><doc id=\"d0\"><link ref=\"d1\"/></doc>\
                   <doc id=\"d1\"><link ref=\"d2\"/></doc><doc id=\"d2\"/></web>";
        let want = expected(
            Question::Reaches,
            Reply::WgLogReaches,
            &parse_root(web).unwrap(),
        );
        assert_eq!(want.keys, ["d0>d1", "d0>d2", "d1>d2"]);
        assert_eq!(want.result_count, 3);
        let reply = "<answer><doc><id>d0</id><doc><id>d1</id></doc><doc><id>d2</id></doc></doc>\
                     <doc><id>d1</id><link><ref>d2</ref></link><doc><id>d2</id></doc></doc>\
                     <doc><id>d2</id></doc></answer>";
        check(Question::Reaches, Reply::WgLogReaches, &want, 3, reply).unwrap();
    }
}
