//! Perceptual screen diffing.
//!
//! The Validate experiments (paper §4.3) reason about *changes in screen
//! state*: did the last action visibly do anything, and does the final
//! screen differ from the initial one in the way the goal requires? This
//! module clusters changed signature-grid cells into regions and exposes
//! the summary quantities the validators consume.

use serde::{Deserialize, Serialize};

use eclair_gui::screenshot::{GRID_COLS, GRID_ROWS};
use eclair_gui::{Rect, Screenshot};

/// Summary of a frame-to-frame comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScreenDiff {
    /// Fraction of signature cells that changed (0 = identical).
    pub changed_fraction: f64,
    /// Bounding rectangles (viewport coords) of contiguous changed areas.
    pub regions: Vec<Rect>,
    /// Whether the URL changed (always a "big" change).
    pub url_changed: bool,
}

impl ScreenDiff {
    /// No visible change at all.
    pub fn is_identical(&self) -> bool {
        !self.url_changed && self.changed_fraction == 0.0
    }

    /// A heuristic "the action clearly did something" predicate.
    pub fn is_significant(&self, threshold: f64) -> bool {
        self.url_changed || self.changed_fraction >= threshold
    }
}

/// Compare two frames.
pub fn diff(a: &Screenshot, b: &Screenshot) -> ScreenDiff {
    if a.url != b.url {
        return url_change(a);
    }
    diff_grids(a, &a.grid_signature(), b, &b.grid_signature())
}

/// [`diff`] of two frames whose grid signatures are already computed:
/// `ga` is `a.grid_signature()` and `gb` is `b.grid_signature()`. A
/// caller walking a sequence of frames computes each frame's grid once.
pub fn diff_grids(a: &Screenshot, ga: &[u64], b: &Screenshot, gb: &[u64]) -> ScreenDiff {
    if a.url != b.url {
        return url_change(a);
    }
    let mut changed = vec![false; ga.len()];
    let mut n_changed = 0usize;
    for (i, (x, y)) in ga.iter().zip(gb).enumerate() {
        if x != y {
            changed[i] = true;
            n_changed += 1;
        }
    }
    let cell_w = a.viewport.w as i32 / GRID_COLS as i32;
    let cell_h = a.viewport.h as i32 / GRID_ROWS as i32;
    let regions = cluster(&changed, cell_w, cell_h);
    ScreenDiff {
        changed_fraction: n_changed as f64 / ga.len() as f64,
        regions,
        url_changed: false,
    }
}

/// A URL change: the whole viewport changed.
fn url_change(a: &Screenshot) -> ScreenDiff {
    ScreenDiff {
        changed_fraction: 1.0,
        regions: vec![Rect::new(0, 0, a.viewport.w, a.viewport.h)],
        url_changed: true,
    }
}

/// Union-find-free clustering: BFS over 4-connected changed cells.
fn cluster(changed: &[bool], cell_w: i32, cell_h: i32) -> Vec<Rect> {
    let mut seen = vec![false; changed.len()];
    let mut regions = Vec::new();
    for start in 0..changed.len() {
        if !changed[start] || seen[start] {
            continue;
        }
        let mut queue = vec![start];
        seen[start] = true;
        let (mut min_x, mut min_y, mut max_x, mut max_y) = (usize::MAX, usize::MAX, 0usize, 0usize);
        while let Some(cell) = queue.pop() {
            let cx = cell % GRID_COLS;
            let cy = cell / GRID_COLS;
            min_x = min_x.min(cx);
            max_x = max_x.max(cx);
            min_y = min_y.min(cy);
            max_y = max_y.max(cy);
            let mut try_push = |nx: isize, ny: isize| {
                if nx < 0 || ny < 0 || nx >= GRID_COLS as isize || ny >= GRID_ROWS as isize {
                    return;
                }
                let idx = ny as usize * GRID_COLS + nx as usize;
                if changed[idx] && !seen[idx] {
                    seen[idx] = true;
                    queue.push(idx);
                }
            };
            try_push(cx as isize - 1, cy as isize);
            try_push(cx as isize + 1, cy as isize);
            try_push(cx as isize, cy as isize - 1);
            try_push(cx as isize, cy as isize + 1);
        }
        regions.push(Rect::new(
            min_x as i32 * cell_w,
            min_y as i32 * cell_h,
            ((max_x - min_x + 1) as i32 * cell_w) as u32,
            ((max_y - min_y + 1) as i32 * cell_h) as u32,
        ));
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclair_gui::{Page, PageBuilder};

    fn base_page() -> Page {
        let mut b = PageBuilder::new("d", "/d");
        b.heading(1, "Report");
        b.text_input("a", "Field A", "");
        b.text("Footer text far below");
        b.finish()
    }

    #[test]
    fn identical_frames_diff_empty() {
        let p = base_page();
        let d = diff(&p.screenshot_at(0), &p.screenshot_at(0));
        assert!(d.is_identical());
        assert!(d.regions.is_empty());
    }

    #[test]
    fn local_edit_yields_local_region() {
        let mut p = base_page();
        let before = p.screenshot_at(0);
        let id = p.find_by_name("a").unwrap();
        let field_rect = p.get(id).bounds;
        p.get_mut(id).value = "hello world".into();
        let after = p.screenshot_at(0);
        let d = diff(&before, &after);
        assert!(!d.is_identical());
        assert!(
            d.changed_fraction < 0.2,
            "local change: {}",
            d.changed_fraction
        );
        assert_eq!(d.regions.len(), 1, "one contiguous region: {:?}", d.regions);
        assert!(
            d.regions[0].intersects(&field_rect),
            "region {:?} overlaps the edited field {field_rect:?}",
            d.regions[0]
        );
    }

    #[test]
    fn url_change_is_total() {
        let p = base_page();
        let mut b2 = PageBuilder::new("other", "/other");
        b2.heading(1, "Elsewhere");
        let p2 = b2.finish();
        let d = diff(&p.screenshot_at(0), &p2.screenshot_at(0));
        assert!(d.url_changed);
        assert_eq!(d.changed_fraction, 1.0);
        assert!(d.is_significant(0.5));
    }

    #[test]
    fn disjoint_changes_yield_multiple_regions() {
        let mut b = PageBuilder::new("two", "/two");
        b.text_input("top", "Top", "");
        for i in 0..25 {
            b.text(format!("spacer {i}"));
        }
        b.text_input("bottom", "Bottom", "");
        let mut p = b.finish();
        let before = p.screenshot_at(0);
        let top = p.find_by_name("top").unwrap();
        let bottom = p.find_by_name("bottom").unwrap();
        p.get_mut(top).value = "x".into();
        p.get_mut(bottom).value = "y".into();
        let after = p.screenshot_at(0);
        let d = diff(&before, &after);
        // The bottom field may be off-screen at scroll 0; only require that
        // if both changed on-screen we see two regions.
        if p.get(bottom).bounds.y < 700 {
            assert!(d.regions.len() >= 2, "{:?}", d.regions);
        } else {
            assert!(!d.regions.is_empty());
        }
    }

    #[test]
    fn significance_threshold() {
        let d = ScreenDiff {
            changed_fraction: 0.01,
            regions: vec![],
            url_changed: false,
        };
        assert!(d.is_significant(0.005));
        assert!(!d.is_significant(0.05));
    }
}
