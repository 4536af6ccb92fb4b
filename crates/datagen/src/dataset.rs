//! The in-memory dataset, its Table-1 statistics and CSV emission.

use std::io::BufWriter;
use std::path::{Path, PathBuf};

use micrograph_common::csvio::CsvWriter;
use micrograph_common::CommonError;

/// A generated user.
#[derive(Debug, Clone, PartialEq)]
pub struct User {
    /// External id (1-based).
    pub uid: u64,
    /// Screen name.
    pub name: String,
    /// Follower count (consistent with the `follows` edges).
    pub followers: u32,
    /// Verified flag (top ~1% by followers).
    pub verified: bool,
}

/// A generated tweet.
#[derive(Debug, Clone, PartialEq)]
pub struct Tweet {
    /// External id (1-based).
    pub tid: u64,
    /// Posting user's uid.
    pub uid: u64,
    /// Body text.
    pub text: String,
}

/// A complete generated dataset (Figure 1 schema).
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Users.
    pub users: Vec<User>,
    /// Tweets (carry their poster: the `posts` edges).
    pub tweets: Vec<Tweet>,
    /// Hashtag names, index = hashtag id.
    pub hashtags: Vec<String>,
    /// `follows`: (follower uid, followee uid).
    pub follows: Vec<(u64, u64)>,
    /// `mentions`: (tid, mentioned uid).
    pub mentions: Vec<(u64, u64)>,
    /// `tags`: (tid, hashtag index).
    pub tags: Vec<(u64, usize)>,
    /// `retweets`: (retweeting tid, original tid). Empty unless enabled.
    pub retweets: Vec<(u64, u64)>,
    /// Bare user nodes: a uid and no other property. Only shard partitions
    /// have them (the local endpoints of cross-shard edges); `users.csv`
    /// gets one `uid,,,` row each, after the real users.
    pub ghosts: Vec<u64>,
}

/// Table 1 — characteristics of the data set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DatasetStats {
    /// user nodes.
    pub users: u64,
    /// tweet nodes.
    pub tweets: u64,
    /// hashtag nodes.
    pub hashtags: u64,
    /// follows edges.
    pub follows: u64,
    /// posts edges.
    pub posts: u64,
    /// mentions edges.
    pub mentions: u64,
    /// tags edges.
    pub tags: u64,
    /// retweets edges.
    pub retweets: u64,
}

impl DatasetStats {
    /// Total nodes.
    pub fn total_nodes(&self) -> u64 {
        self.users + self.tweets + self.hashtags
    }

    /// Total relationships.
    pub fn total_edges(&self) -> u64 {
        self.follows + self.posts + self.mentions + self.tags + self.retweets
    }

    /// Fraction of edges that are `follows` (paper: ≈80%).
    pub fn follows_fraction(&self) -> f64 {
        if self.total_edges() == 0 {
            0.0
        } else {
            self.follows as f64 / self.total_edges() as f64
        }
    }

    /// Renders the Table 1 layout.
    pub fn render_table(&self) -> String {
        let mut rows = vec![
            ("user", self.users, "follows", self.follows),
            ("tweet", self.tweets, "posts", self.posts),
            ("hashtag", self.hashtags, "mentions", self.mentions),
        ];
        rows.push(("", 0, "tags", self.tags));
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:>12}   {:<12} {:>12}\n",
            "Node", "Count", "Relationship", "Count"
        ));
        for (n, nc, r, rc) in rows {
            let ncs = if n.is_empty() { String::new() } else { format!("{nc}") };
            out.push_str(&format!("{n:<10} {ncs:>12}   {r:<12} {rc:>12}\n"));
        }
        if self.retweets > 0 {
            out.push_str(&format!("{:<10} {:>12}   {:<12} {:>12}\n", "", "", "retweets", self.retweets));
        }
        out.push_str(&format!(
            "{:<10} {:>12}   {:<12} {:>12}\n",
            "Total",
            self.total_nodes(),
            "Total",
            self.total_edges()
        ));
        out
    }
}

/// Paths of the emitted CSV source files ("the same source files ... were
/// used with both databases").
#[derive(Debug, Clone)]
pub struct CsvFiles {
    /// Directory holding every file.
    pub dir: PathBuf,
    /// `uid,name,followers,verified` (ghosts: `uid,,,`)
    pub users: PathBuf,
    /// `tid,text`
    pub tweets: PathBuf,
    /// `tag`
    pub hashtags: PathBuf,
    /// `src uid,dst uid`
    pub follows: PathBuf,
    /// `uid,tid`
    pub posts: PathBuf,
    /// `tid,uid`
    pub mentions: PathBuf,
    /// `tid,tag`
    pub tags: PathBuf,
    /// `tid,tid` (present only when retweets were generated)
    pub retweets: Option<PathBuf>,
}

impl Dataset {
    /// Computes the Table 1 statistics.
    pub fn stats(&self) -> DatasetStats {
        DatasetStats {
            users: self.users.len() as u64,
            tweets: self.tweets.len() as u64,
            hashtags: self.hashtags.len() as u64,
            follows: self.follows.len() as u64,
            posts: self.tweets.len() as u64,
            mentions: self.mentions.len() as u64,
            tags: self.tags.len() as u64,
            retweets: self.retweets.len() as u64,
        }
    }

    /// Writes the loader source files into `dir`.
    pub fn write_csv(&self, dir: &Path) -> Result<CsvFiles, CommonError> {
        std::fs::create_dir_all(dir)?;
        let open = |name: &str| -> Result<CsvWriter<BufWriter<std::fs::File>>, CommonError> {
            Ok(CsvWriter::new(BufWriter::new(std::fs::File::create(dir.join(name))?)))
        };

        let mut w = open("users.csv")?;
        for u in &self.users {
            w.write_row(&[
                u.uid.to_string(),
                u.name.clone(),
                u.followers.to_string(),
                (u.verified as u8).to_string(),
            ])?;
        }
        for uid in &self.ghosts {
            w.write_row(&[uid.to_string().as_str(), "", "", ""])?;
        }
        w.into_inner()?;

        let mut w = open("tweets.csv")?;
        for t in &self.tweets {
            w.write_row(&[t.tid.to_string(), t.text.clone()])?;
        }
        w.into_inner()?;

        let mut w = open("hashtags.csv")?;
        for h in &self.hashtags {
            w.write_row(&[h.as_str()])?;
        }
        w.into_inner()?;

        let mut w = open("follows.csv")?;
        for &(a, b) in &self.follows {
            w.write_row(&[a.to_string(), b.to_string()])?;
        }
        w.into_inner()?;

        let mut w = open("posts.csv")?;
        for t in &self.tweets {
            w.write_row(&[t.uid.to_string(), t.tid.to_string()])?;
        }
        w.into_inner()?;

        let mut w = open("mentions.csv")?;
        for &(t, u) in &self.mentions {
            w.write_row(&[t.to_string(), u.to_string()])?;
        }
        w.into_inner()?;

        let mut w = open("tags.csv")?;
        for &(t, h) in &self.tags {
            w.write_row(&[t.to_string(), self.hashtags[h].clone()])?;
        }
        w.into_inner()?;

        let retweets = if self.retweets.is_empty() {
            None
        } else {
            let mut w = open("retweets.csv")?;
            for &(rt, orig) in &self.retweets {
                w.write_row(&[rt.to_string(), orig.to_string()])?;
            }
            w.into_inner()?;
            Some(dir.join("retweets.csv"))
        };

        Ok(CsvFiles {
            dir: dir.to_path_buf(),
            users: dir.join("users.csv"),
            tweets: dir.join("tweets.csv"),
            hashtags: dir.join("hashtags.csv"),
            follows: dir.join("follows.csv"),
            posts: dir.join("posts.csv"),
            mentions: dir.join("mentions.csv"),
            tags: dir.join("tags.csv"),
            retweets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset {
            users: vec![
                User { uid: 1, name: "a".into(), followers: 1, verified: false },
                User { uid: 2, name: "b".into(), followers: 0, verified: true },
            ],
            tweets: vec![Tweet { tid: 1, uid: 1, text: "hi, there".into() }],
            hashtags: vec!["rust".into()],
            follows: vec![(2, 1)],
            mentions: vec![(1, 2)],
            tags: vec![(1, 0)],
            retweets: vec![],
            ghosts: vec![],
        }
    }

    #[test]
    fn stats_totals() {
        let s = tiny().stats();
        assert_eq!(s.total_nodes(), 4);
        assert_eq!(s.total_edges(), 4); // follows + posts + mentions + tags
        assert_eq!(s.posts, 1);
        assert!((s.follows_fraction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn render_table_has_all_rows() {
        let t = tiny().stats().render_table();
        for needle in ["user", "tweet", "hashtag", "follows", "posts", "mentions", "tags", "Total"] {
            assert!(t.contains(needle), "missing {needle} in:\n{t}");
        }
    }

    #[test]
    fn csv_emission_roundtrip_counts() {
        let dir = std::env::temp_dir().join(format!("datagen-csv-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d = tiny();
        let files = d.write_csv(&dir).unwrap();
        let lines = |p: &Path| std::fs::read_to_string(p).unwrap().lines().count();
        assert_eq!(lines(&files.users), 2);
        assert_eq!(lines(&files.tweets), 1);
        assert_eq!(lines(&files.follows), 1);
        assert_eq!(lines(&files.posts), 1);
        assert_eq!(lines(&files.mentions), 1);
        assert_eq!(lines(&files.tags), 1);
        assert!(files.retweets.is_none());
        // Quoting: the tweet text contains a comma.
        let tw = std::fs::read_to_string(&files.tweets).unwrap();
        assert!(tw.contains("\"hi, there\""), "{tw}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ghosts_are_written_as_bare_user_rows() {
        let dir = std::env::temp_dir().join(format!("datagen-ghost-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d = Dataset { ghosts: vec![7, 9], ..tiny() };
        let files = d.write_csv(&dir).unwrap();
        let users = std::fs::read_to_string(&files.users).unwrap();
        assert_eq!(users, "1,a,1,0\n2,b,0,1\n7,,,\n9,,,\n");
        assert_eq!(d.stats().users, 2, "ghosts are not users of the dataset");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
