//! Axis-aligned rectangles on the nm grid.

use crate::{GeomError, Point, Vec2};
use std::fmt;

/// An axis-aligned rectangle `[x0, x1) × [y0, y1)` in nm.
///
/// Contact patterns in the synthetic layouts are squares represented by this
/// type; EPE checkpoints are sampled on its edges. The half-open convention
/// matches raster semantics: a `w × h` rectangle covers exactly `w·h` pixels.
///
/// ```
/// use ldmo_geom::Rect;
/// let a = Rect::new(0, 0, 10, 10);
/// let b = Rect::new(20, 0, 30, 10);
/// assert_eq!(a.gap_to(&b), 10.0); // edge-to-edge spacing
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Rect {
    /// Left edge (inclusive).
    pub x0: i32,
    /// Bottom edge (inclusive).
    pub y0: i32,
    /// Right edge (exclusive).
    pub x1: i32,
    /// Top edge (exclusive).
    pub y1: i32,
}

impl Rect {
    /// Creates a rectangle from corner coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `x1 <= x0` or `y1 <= y0`; use [`Rect::try_new`] for a
    /// fallible constructor.
    pub fn new(x0: i32, y0: i32, x1: i32, y1: i32) -> Self {
        Self::try_new(x0, y0, x1, y1).expect("rectangle must have positive extent")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::EmptyRect`] if the extent is non-positive.
    pub fn try_new(x0: i32, y0: i32, x1: i32, y1: i32) -> Result<Self, GeomError> {
        if x1 <= x0 || y1 <= y0 {
            return Err(GeomError::EmptyRect {
                coords: (x0, y0, x1, y1),
            });
        }
        Ok(Rect { x0, y0, x1, y1 })
    }

    /// Creates a square of side `size` whose lower-left corner is `(x0, y0)`.
    pub fn square(x0: i32, y0: i32, size: i32) -> Self {
        Rect::new(x0, y0, x0 + size, y0 + size)
    }

    /// Creates a rectangle from its center and full extents.
    pub fn centered(cx: i32, cy: i32, w: i32, h: i32) -> Self {
        Rect::new(cx - w / 2, cy - h / 2, cx - w / 2 + w, cy - h / 2 + h)
    }

    /// Width in nm.
    pub fn width(&self) -> i32 {
        self.x1 - self.x0
    }

    /// Height in nm.
    pub fn height(&self) -> i32 {
        self.y1 - self.y0
    }

    /// Area in nm².
    pub fn area(&self) -> i64 {
        i64::from(self.width()) * i64::from(self.height())
    }

    /// Center (rounded down to the grid).
    pub fn center(&self) -> Point {
        Point::new((self.x0 + self.x1) / 2, (self.y0 + self.y1) / 2)
    }

    /// Exact floating-point center.
    pub fn center_f(&self) -> Vec2 {
        Vec2::new(
            f64::from(self.x0 + self.x1) / 2.0,
            f64::from(self.y0 + self.y1) / 2.0,
        )
    }

    /// Whether the point `(x, y)` lies inside the half-open rectangle.
    pub fn contains(&self, x: i32, y: i32) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }

    /// Whether `self` and `other` overlap (share interior area).
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x0 < other.x1 && other.x0 < self.x1 && self.y0 < other.y1 && other.y0 < self.y1
    }

    /// Intersection of two rectangles, if non-empty.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let x0 = self.x0.max(other.x0);
        let y0 = self.y0.max(other.y0);
        let x1 = self.x1.min(other.x1);
        let y1 = self.y1.min(other.y1);
        Rect::try_new(x0, y0, x1, y1).ok()
    }

    /// Rectangle grown by `margin` on every side.
    ///
    /// # Panics
    ///
    /// Panics if a negative margin collapses the rectangle.
    pub fn expanded(&self, margin: i32) -> Rect {
        Rect::new(
            self.x0 - margin,
            self.y0 - margin,
            self.x1 + margin,
            self.y1 + margin,
        )
    }

    /// Rectangle translated by `(dx, dy)`.
    pub fn translated(&self, dx: i32, dy: i32) -> Rect {
        Rect {
            x0: self.x0 + dx,
            y0: self.y0 + dy,
            x1: self.x1 + dx,
            y1: self.y1 + dy,
        }
    }

    /// Minimum edge-to-edge Euclidean gap between two rectangles, in nm.
    ///
    /// Returns `0.0` for touching or overlapping rectangles. This is the
    /// spacing measure `d` used by the paper's pattern classification
    /// (Eq. 6): patterns with `gap <= nmin` are separated patterns, etc.
    pub fn gap_to(&self, other: &Rect) -> f64 {
        let dx = (other.x0 - self.x1).max(self.x0 - other.x1).max(0);
        let dy = (other.y0 - self.y1).max(self.y0 - other.y1).max(0);
        f64::from(dx).hypot(f64::from(dy))
    }

    /// Iterates over the four corner points, counter-clockwise from `(x0, y0)`.
    pub fn corners(&self) -> [Point; 4] {
        [
            Point::new(self.x0, self.y0),
            Point::new(self.x1, self.y0),
            Point::new(self.x1, self.y1),
            Point::new(self.x0, self.y1),
        ]
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{} — {},{}]", self.x0, self.y0, self.x1, self.y1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_measures() {
        let r = Rect::new(2, 3, 12, 8);
        assert_eq!(r.width(), 10);
        assert_eq!(r.height(), 5);
        assert_eq!(r.area(), 50);
        assert_eq!(r.center(), Point::new(7, 5));
    }

    #[test]
    fn try_new_rejects_empty() {
        assert!(Rect::try_new(0, 0, 0, 5).is_err());
        assert!(Rect::try_new(0, 0, 5, 0).is_err());
        assert!(Rect::try_new(5, 0, 0, 5).is_err());
        assert!(Rect::try_new(0, 0, 1, 1).is_ok());
    }

    #[test]
    #[should_panic(expected = "positive extent")]
    fn new_panics_on_empty() {
        let _ = Rect::new(3, 3, 3, 3);
    }

    #[test]
    fn containment_half_open() {
        let r = Rect::new(0, 0, 10, 10);
        assert!(r.contains(0, 0));
        assert!(r.contains(9, 9));
        assert!(!r.contains(10, 0));
        assert!(!r.contains(0, 10));
        assert!(!r.contains(-1, 5));
    }

    #[test]
    fn intersection_cases() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 15, 15);
        let c = Rect::new(10, 0, 20, 10); // touching edge: no interior overlap
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), Some(Rect::new(5, 5, 10, 10)));
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection(&c), None);
    }

    #[test]
    fn gap_horizontal_vertical_diagonal() {
        let a = Rect::new(0, 0, 10, 10);
        assert_eq!(a.gap_to(&Rect::new(25, 0, 35, 10)), 15.0);
        assert_eq!(a.gap_to(&Rect::new(0, 22, 10, 30)), 12.0);
        // diagonal: dx = 3, dy = 4 -> 5
        assert_eq!(a.gap_to(&Rect::new(13, 14, 20, 20)), 5.0);
        // overlap -> 0
        assert_eq!(a.gap_to(&Rect::new(5, 5, 9, 9)), 0.0);
    }

    #[test]
    fn square_and_centered() {
        let s = Rect::square(5, 6, 40);
        assert_eq!((s.width(), s.height()), (40, 40));
        let c = Rect::centered(50, 50, 20, 10);
        assert_eq!(c, Rect::new(40, 45, 60, 55));
    }

    #[test]
    fn translate_and_expand() {
        let r = Rect::new(0, 0, 10, 10).translated(5, -2).expanded(1);
        assert_eq!(r, Rect::new(4, -3, 16, 9));
    }

    #[test]
    fn corners_ccw() {
        let r = Rect::new(1, 2, 3, 4);
        assert_eq!(
            r.corners(),
            [
                Point::new(1, 2),
                Point::new(3, 2),
                Point::new(3, 4),
                Point::new(1, 4)
            ]
        );
    }

    proptest! {
        #[test]
        fn gap_symmetric(ax in -100i32..100, ay in -100i32..100, aw in 1i32..50, ah in 1i32..50,
                         bx in -100i32..100, by in -100i32..100, bw in 1i32..50, bh in 1i32..50) {
            let a = Rect::new(ax, ay, ax + aw, ay + ah);
            let b = Rect::new(bx, by, bx + bw, by + bh);
            prop_assert!((a.gap_to(&b) - b.gap_to(&a)).abs() < 1e-9);
        }

        #[test]
        fn overlap_implies_zero_gap(ax in -50i32..50, ay in -50i32..50, aw in 1i32..40, ah in 1i32..40,
                                    bx in -50i32..50, by in -50i32..50, bw in 1i32..40, bh in 1i32..40) {
            let a = Rect::new(ax, ay, ax + aw, ay + ah);
            let b = Rect::new(bx, by, bx + bw, by + bh);
            if a.intersects(&b) {
                prop_assert_eq!(a.gap_to(&b), 0.0);
            } else {
                prop_assert!(a.gap_to(&b) >= 0.0);
            }
        }
    }
}
