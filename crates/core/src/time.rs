//! Civil time without external dependencies.
//!
//! The study spans Jul 2012 – Jul 2016 and aggregates by day-of-week
//! (Fig. 3), by week (Figs. 1, 2, 4, 5, 12, 26), and by day (§3.1 load
//! statistics). This module provides a second-resolution [`Timestamp`],
//! proleptic-Gregorian conversions (Howard Hinnant's `days_from_civil`
//! algorithm), ISO weekdays, and the `Mon'YY` week labels used by the
//! paper's figures.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use crate::error::{CoreError, Result};

/// Seconds in a civil day.
pub const SECS_PER_DAY: i64 = 86_400;
/// Seconds in a civil week.
pub const SECS_PER_WEEK: i64 = 7 * SECS_PER_DAY;

/// A span of time with second resolution. May be negative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(i64);

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from whole seconds.
    #[inline]
    pub const fn from_secs(secs: i64) -> Self {
        Duration(secs)
    }

    /// Creates a duration from whole minutes.
    #[inline]
    pub const fn from_mins(mins: i64) -> Self {
        Duration(mins * 60)
    }

    /// Creates a duration from whole hours.
    #[inline]
    pub const fn from_hours(hours: i64) -> Self {
        Duration(hours * 3_600)
    }

    /// Creates a duration from whole days.
    #[inline]
    pub const fn from_days(days: i64) -> Self {
        Duration(days * SECS_PER_DAY)
    }

    /// Total seconds (negative if the duration is negative).
    #[inline]
    pub const fn as_secs(self) -> i64 {
        self.0
    }

    /// Total duration expressed in fractional hours.
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600.0
    }

    /// Total duration expressed in fractional days.
    #[inline]
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / SECS_PER_DAY as f64
    }

    /// True when the duration is negative.
    #[inline]
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0.unsigned_abs();
        let sign = if self.0 < 0 { "-" } else { "" };
        let (d, rem) = (s / SECS_PER_DAY as u64, s % SECS_PER_DAY as u64);
        let (h, rem) = (rem / 3_600, rem % 3_600);
        let (m, sec) = (rem / 60, rem % 60);
        if d > 0 {
            write!(f, "{sign}{d}d{h:02}h{m:02}m{sec:02}s")
        } else if h > 0 {
            write!(f, "{sign}{h}h{m:02}m{sec:02}s")
        } else if m > 0 {
            write!(f, "{sign}{m}m{sec:02}s")
        } else {
            write!(f, "{sign}{sec}s")
        }
    }
}

/// Day of the week, ISO numbering (`Mon = 0` … `Sun = 6`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Weekday {
    /// Monday.
    Mon,
    /// Tuesday.
    Tue,
    /// Wednesday.
    Wed,
    /// Thursday.
    Thu,
    /// Friday.
    Fri,
    /// Saturday.
    Sat,
    /// Sunday.
    Sun,
}

impl Weekday {
    /// All weekdays, Monday first — the x-axis order of paper Fig. 3.
    pub const ALL: [Weekday; 7] = [
        Weekday::Mon,
        Weekday::Tue,
        Weekday::Wed,
        Weekday::Thu,
        Weekday::Fri,
        Weekday::Sat,
        Weekday::Sun,
    ];

    /// Index with `Mon = 0` … `Sun = 6`.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Construct from an index `0..7` (`Mon = 0`).
    pub fn from_index(i: usize) -> Option<Weekday> {
        Weekday::ALL.get(i).copied()
    }

    /// True for Saturday and Sunday (paper §3.1: weekend troughs).
    #[inline]
    pub const fn is_weekend(self) -> bool {
        matches!(self, Weekday::Sat | Weekday::Sun)
    }

    /// Three-letter English abbreviation, as printed in Fig. 3.
    pub const fn abbrev(self) -> &'static str {
        match self {
            Weekday::Mon => "Mon",
            Weekday::Tue => "Tue",
            Weekday::Wed => "Wed",
            Weekday::Thu => "Thu",
            Weekday::Fri => "Fri",
            Weekday::Sat => "Sat",
            Weekday::Sun => "Sun",
        }
    }
}

impl fmt::Display for Weekday {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// Index of a civil week. Week 0 contains the Unix epoch (1970-01-01 was a
/// Thursday; weeks start on Monday, so week 0 starts 1969-12-29).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WeekIndex(pub i32);

impl WeekIndex {
    /// Timestamp of this week's Monday 00:00:00.
    pub fn start(self) -> Timestamp {
        Timestamp::from_secs(EPOCH_WEEK_START + self.0 as i64 * SECS_PER_WEEK)
    }

    /// The following week.
    #[inline]
    pub fn next(self) -> WeekIndex {
        WeekIndex(self.0 + 1)
    }

    /// Label in the paper's `Mon'YY` axis style, e.g. `Jul'12`.
    pub fn label(self) -> String {
        self.start().month_year_label()
    }
}

/// Offset (seconds) from the Unix epoch back to the Monday of its week.
/// 1970-01-01 was a Thursday, i.e. 3 days after Monday.
const EPOCH_WEEK_START: i64 = -3 * SECS_PER_DAY;

/// An instant in civil (UTC) time with second resolution.
///
/// Internally the count of seconds since the Unix epoch; may be negative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(i64);

impl Timestamp {
    /// Earliest instant ingest accepts from untrusted input:
    /// 1970-01-01 00:00:00 UTC.
    pub const CIVIL_MIN: Timestamp = Timestamp(0);

    /// Latest instant ingest accepts from untrusted input:
    /// 9999-12-31 23:59:59 UTC.
    pub const CIVIL_MAX: Timestamp = Timestamp(253_402_300_799);

    /// True inside `[CIVIL_MIN, CIVIL_MAX]`. Ingest quarantines rows whose
    /// timestamps fall outside, so week, day and month arithmetic over
    /// accepted rows (and differences between them) can never overflow —
    /// [`Timestamp::week`] panics on instants ~41 million years out.
    pub fn is_civil(self) -> bool {
        (Self::CIVIL_MIN..=Self::CIVIL_MAX).contains(&self)
    }

    /// Creates a timestamp from seconds since the Unix epoch.
    #[inline]
    pub const fn from_secs(secs: i64) -> Self {
        Timestamp(secs)
    }

    /// Seconds since the Unix epoch.
    #[inline]
    pub const fn as_secs(self) -> i64 {
        self.0
    }

    /// Builds a timestamp from a civil date at midnight UTC.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Self {
        Timestamp(days_from_civil(year, month, day) * SECS_PER_DAY)
    }

    /// Builds a timestamp from a civil date and time of day.
    pub fn from_ymd_hms(year: i32, month: u32, day: u32, hour: u32, min: u32, sec: u32) -> Self {
        debug_assert!(hour < 24 && min < 60 && sec < 60);
        Timestamp(
            days_from_civil(year, month, day) * SECS_PER_DAY
                + i64::from(hour) * 3_600
                + i64::from(min) * 60
                + i64::from(sec),
        )
    }

    /// Parses `YYYY-MM-DD` or `YYYY-MM-DDTHH:MM:SS`.
    pub fn parse(s: &str) -> Result<Self> {
        let bad = || CoreError::InvalidTime(s.to_owned());
        let (date, time) = match s.split_once('T') {
            Some((d, t)) => (d, Some(t)),
            None => (s, None),
        };
        let mut dp = date.splitn(3, '-');
        // A leading '-' would split wrong; the study's range is CE years only.
        let year: i32 = dp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let month: u32 = dp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let day: u32 = dp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        if !(1..=12).contains(&month)
            || !(1..=31).contains(&day)
            || day > days_in_month(year, month)
        {
            return Err(bad());
        }
        let (mut h, mut m, mut sec) = (0u32, 0u32, 0u32);
        if let Some(t) = time {
            let mut tp = t.splitn(3, ':');
            h = tp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
            m = tp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
            sec = tp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
            if h >= 24 || m >= 60 || sec >= 60 {
                return Err(bad());
            }
        }
        Ok(Timestamp::from_ymd_hms(year, month, day, h, m, sec))
    }

    /// Civil days since the Unix epoch (floored).
    #[inline]
    pub fn day_number(self) -> i64 {
        self.0.div_euclid(SECS_PER_DAY)
    }

    /// The `(year, month, day)` of this instant.
    pub fn ymd(self) -> (i32, u32, u32) {
        civil_from_days(self.day_number())
    }

    /// The civil year.
    pub fn year(self) -> i32 {
        self.ymd().0
    }

    /// The civil month, `1..=12`.
    pub fn month(self) -> u32 {
        self.ymd().1
    }

    /// Seconds since local midnight.
    #[inline]
    pub fn seconds_of_day(self) -> i64 {
        self.0.rem_euclid(SECS_PER_DAY)
    }

    /// ISO weekday of this instant.
    pub fn weekday(self) -> Weekday {
        // Day 0 (1970-01-01) was a Thursday → index 3.
        let idx = (self.day_number() + 3).rem_euclid(7) as usize;
        Weekday::ALL[idx]
    }

    /// The week (Monday-aligned) containing this instant.
    pub fn week(self) -> WeekIndex {
        let w = (self.0 - EPOCH_WEEK_START).div_euclid(SECS_PER_WEEK);
        WeekIndex(i32::try_from(w).expect("week index out of range"))
    }

    /// Midnight at the start of this instant's day.
    pub fn day_start(self) -> Timestamp {
        Timestamp(self.day_number() * SECS_PER_DAY)
    }

    /// Label in the paper's axis style, e.g. `Jul'12`.
    pub fn month_year_label(self) -> String {
        let (y, m, _) = self.ymd();
        format!("{}'{:02}", MONTH_ABBREV[(m - 1) as usize], y.rem_euclid(100))
    }

    /// ISO-8601 `YYYY-MM-DDTHH:MM:SS` rendering.
    pub fn iso8601(self) -> String {
        let (y, mo, d) = self.ymd();
        let sod = self.seconds_of_day();
        format!(
            "{y:04}-{mo:02}-{d:02}T{:02}:{:02}:{:02}",
            sod / 3_600,
            (sod % 3_600) / 60,
            sod % 60
        )
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.as_secs())
    }
}

impl AddAssign<Duration> for Timestamp {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_secs();
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 - rhs.as_secs())
    }
}

impl SubAssign<Duration> for Timestamp {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.as_secs();
    }
}

impl Sub for Timestamp {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Timestamp) -> Duration {
        Duration::from_secs(self.0 - rhs.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.iso8601())
    }
}

const MONTH_ABBREV: [&str; 12] =
    ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"];

/// True for Gregorian leap years.
pub fn is_leap_year(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

/// Number of days in `month` of `year`.
pub fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Days since 1970-01-01 for a civil date (Hinnant's algorithm).
pub fn days_from_civil(year: i32, month: u32, day: u32) -> i64 {
    debug_assert!((1..=12).contains(&month));
    debug_assert!((1..=days_in_month(year, month)).contains(&day));
    let y = i64::from(year) - i64::from(month <= 2);
    let era = y.div_euclid(400);
    let yoe = y - era * 400; // [0, 399]
    let mp = i64::from((month + 9) % 12); // [0, 11], Mar = 0
    let doy = (153 * mp + 2) / 5 + i64::from(day) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date for a count of days since 1970-01-01 (Hinnant's algorithm).
pub fn civil_from_days(days: i64) -> (i32, u32, u32) {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_range_spans_1970_through_9999() {
        assert_eq!(Timestamp::CIVIL_MIN, Timestamp::from_ymd(1970, 1, 1));
        assert_eq!(Timestamp::CIVIL_MAX.ymd(), (9999, 12, 31));
        assert_eq!((Timestamp::CIVIL_MAX + Duration::from_secs(1)).ymd(), (10000, 1, 1));
        assert!(Timestamp::CIVIL_MIN.is_civil() && Timestamp::CIVIL_MAX.is_civil());
        assert!(!Timestamp::from_secs(-1).is_civil());
        assert!(!(Timestamp::CIVIL_MAX + Duration::from_secs(1)).is_civil());
        assert!(!Timestamp::from_secs(9_000_000_000_000_000_000).is_civil());
    }

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(civil_from_days(0), (1970, 1, 1));
    }

    #[test]
    fn known_dates() {
        // Verified against `date -d`.
        assert_eq!(days_from_civil(2012, 7, 1), 15_522);
        assert_eq!(days_from_civil(2016, 7, 1), 16_983);
        assert_eq!(days_from_civil(2000, 2, 29), 11_016);
        assert_eq!(civil_from_days(16_983), (2016, 7, 1));
    }

    #[test]
    fn weekday_of_known_dates() {
        assert_eq!(Timestamp::from_ymd(1970, 1, 1).weekday(), Weekday::Thu);
        assert_eq!(Timestamp::from_ymd(2015, 1, 1).weekday(), Weekday::Thu);
        assert_eq!(Timestamp::from_ymd(2015, 1, 5).weekday(), Weekday::Mon);
        assert_eq!(Timestamp::from_ymd(2016, 2, 29).weekday(), Weekday::Mon);
        assert_eq!(Timestamp::from_ymd(2012, 7, 1).weekday(), Weekday::Sun);
    }

    #[test]
    fn weekday_before_epoch() {
        // 1969-12-31 was a Wednesday.
        assert_eq!(Timestamp::from_ymd(1969, 12, 31).weekday(), Weekday::Wed);
    }

    #[test]
    fn leap_years() {
        assert!(is_leap_year(2000));
        assert!(is_leap_year(2012));
        assert!(!is_leap_year(1900));
        assert!(!is_leap_year(2015));
        assert_eq!(days_in_month(2016, 2), 29);
        assert_eq!(days_in_month(2015, 2), 28);
        assert_eq!(days_in_month(2015, 4), 30);
    }

    #[test]
    fn week_alignment() {
        // 2015-01-05 was a Monday; its week starts at itself.
        let mon = Timestamp::from_ymd(2015, 1, 5);
        assert_eq!(mon.week().start(), mon);
        // Any instant later in that week maps to the same week.
        let sun_evening = Timestamp::from_ymd_hms(2015, 1, 11, 23, 59, 59);
        assert_eq!(sun_evening.week(), mon.week());
        let next_mon = Timestamp::from_ymd(2015, 1, 12);
        assert_eq!(next_mon.week(), mon.week().next());
    }

    #[test]
    fn week_zero_contains_epoch() {
        let epoch = Timestamp::from_secs(0);
        assert_eq!(epoch.week(), WeekIndex(0));
        assert_eq!(WeekIndex(0).start(), Timestamp::from_ymd(1969, 12, 29));
        assert_eq!(WeekIndex(0).start().weekday(), Weekday::Mon);
    }

    #[test]
    fn labels_match_paper_axis_style() {
        assert_eq!(Timestamp::from_ymd(2012, 7, 15).month_year_label(), "Jul'12");
        assert_eq!(Timestamp::from_ymd(2016, 1, 2).month_year_label(), "Jan'16");
    }

    #[test]
    fn parse_roundtrip() {
        let t = Timestamp::parse("2015-03-02T09:30:05").unwrap();
        assert_eq!(t, Timestamp::from_ymd_hms(2015, 3, 2, 9, 30, 5));
        assert_eq!(t.iso8601(), "2015-03-02T09:30:05");
        let d = Timestamp::parse("2014-12-31").unwrap();
        assert_eq!(d, Timestamp::from_ymd(2014, 12, 31));
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in ["", "2015", "2015-13-01", "2015-02-30", "2015-01-01T25:00:00", "x-y-z"] {
            assert!(Timestamp::parse(s).is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn arithmetic() {
        let t = Timestamp::from_ymd(2015, 6, 1);
        let u = t + Duration::from_days(30);
        assert_eq!(u.ymd(), (2015, 7, 1));
        assert_eq!(u - t, Duration::from_days(30));
        assert_eq!((t - Duration::from_secs(1)).ymd(), (2015, 5, 31));
    }

    #[test]
    fn duration_display() {
        assert_eq!(Duration::from_secs(42).to_string(), "42s");
        assert_eq!(Duration::from_secs(3_725).to_string(), "1h02m05s");
        assert_eq!(Duration::from_days(2).to_string(), "2d00h00m00s");
        assert_eq!(Duration::from_secs(-90).to_string(), "-1m30s");
    }

    #[test]
    fn seconds_of_day() {
        let t = Timestamp::from_ymd_hms(2015, 3, 2, 1, 2, 3);
        assert_eq!(t.seconds_of_day(), 3_723);
        assert_eq!(t.day_start(), Timestamp::from_ymd(2015, 3, 2));
    }

    #[test]
    fn civil_roundtrip_exhaustive_window() {
        // Every day of the study period round-trips.
        let start = days_from_civil(2012, 1, 1);
        let end = days_from_civil(2017, 1, 1);
        let mut prev_dow = Timestamp::from_secs(start * SECS_PER_DAY).weekday().index();
        for day in start..end {
            let (y, m, d) = civil_from_days(day);
            assert_eq!(days_from_civil(y, m, d), day);
            let dow = Timestamp::from_secs(day * SECS_PER_DAY).weekday().index();
            if day > start {
                assert_eq!(dow, (prev_dow + 1) % 7, "weekdays advance by one");
            }
            prev_dow = dow;
        }
    }
}
