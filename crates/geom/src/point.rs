//! Integer lattice points and floating-point vectors.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A point on the 1 nm design grid.
///
/// ```
/// use ldmo_geom::Point;
/// let a = Point::new(3, 4);
/// assert_eq!(a - Point::new(1, 1), Point::new(2, 3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Point {
    /// Horizontal coordinate in nm.
    pub x: i32,
    /// Vertical coordinate in nm.
    pub y: i32,
}

impl Point {
    /// Creates a point at `(x, y)`.
    pub const fn new(x: i32, y: i32) -> Self {
        Point { x, y }
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Neg for Point {
    type Output = Point;
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(i32, i32)> for Point {
    fn from((x, y): (i32, i32)) -> Self {
        Point::new(x, y)
    }
}

/// A 2-D floating-point vector, used for sub-pixel positions
/// (EPE checkpoints, SIFT keypoints) and directions.
///
/// ```
/// use ldmo_geom::Vec2;
/// let v = Vec2::new(3.0, 4.0) * 2.0;
/// assert_eq!(v, Vec2::new(6.0, 8.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Vec2 {
    /// Creates a vector `(x, y)`.
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_arithmetic() {
        let a = Point::new(1, 2);
        let b = Point::new(3, -4);
        assert_eq!(a + b, Point::new(4, -2));
        assert_eq!(a - b, Point::new(-2, 6));
        assert_eq!(-a, Point::new(-1, -2));
    }

    #[test]
    fn point_from_tuple_and_display() {
        let p: Point = (7, 9).into();
        assert_eq!(format!("{p}"), "(7, 9)");
    }
}
