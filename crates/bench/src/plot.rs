//! Minimal dependency-free SVG charts for the regenerated figures:
//! grouped bars (Figures 6a, 7a, 8) and line plots with optional log-x
//! (Figures 1 and 6b).

#![expect(
    clippy::expect_used,
    reason = "figure/CLI generator: aborting with a message on a malformed experiment is the intended failure mode"
)]

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Chart canvas constants.
const W: f64 = 760.0;
const H: f64 = 420.0;
const ML: f64 = 64.0; // left margin
const MR: f64 = 24.0;
const MT: f64 = 48.0;
const MB: f64 = 72.0;

/// A qualitative colour per series (colour-blind-safe-ish).
const COLORS: [&str; 6] = [
    "#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377",
];

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn svg_header(title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}" font-family="sans-serif">"#
    );
    let _ = writeln!(out, r#"<rect width="{W}" height="{H}" fill="white"/>"#);
    let _ = writeln!(
        out,
        r#"<text x="{}" y="24" text-anchor="middle" font-size="15" font-weight="bold">{}</text>"#,
        W / 2.0,
        esc(title)
    );
    out
}

/// A line plot: one or more named series over shared x values.
pub struct LinePlot {
    /// Chart title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// Plot x on a log10 scale.
    pub log_x: bool,
    /// `(series name, points)`.
    pub series: Vec<(String, Vec<(f64, f64)>)>,
}

impl LinePlot {
    /// Render to an SVG string.
    pub fn render(&self) -> String {
        let mut out = svg_header(&self.title);
        let xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|(_, pts)| pts.iter().map(|p| p.0))
            .collect();
        let ys: Vec<f64> = self
            .series
            .iter()
            .flat_map(|(_, pts)| pts.iter().map(|p| p.1))
            .collect();
        if xs.is_empty() {
            out.push_str("</svg>");
            return out;
        }
        let tx = |x: f64| if self.log_x { x.max(1e-12).log10() } else { x };
        let (xmin, xmax) = min_max(&xs.iter().map(|&x| tx(x)).collect::<Vec<_>>());
        let (ymin, ymax) = min_max(&ys);
        let ymin = ymin.min(0.0);
        let sx = |x: f64| ML + (tx(x) - xmin) / (xmax - xmin).max(1e-12) * (W - ML - MR);
        let sy = |y: f64| H - MB - (y - ymin) / (ymax - ymin).max(1e-12) * (H - MT - MB);

        // Axes.
        let _ = writeln!(
            out,
            r#"<line x1="{ML}" y1="{}" x2="{}" y2="{}" stroke="black"/>"#,
            H - MB,
            W - MR,
            H - MB
        );
        let _ = writeln!(
            out,
            r#"<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{}" stroke="black"/>"#,
            H - MB
        );
        // Y ticks.
        for i in 0..=4 {
            let v = ymin + (ymax - ymin) * i as f64 / 4.0;
            let y = sy(v);
            let _ = writeln!(
                out,
                r#"<line x1="{}" y1="{y}" x2="{ML}" y2="{y}" stroke="black"/><text x="{}" y="{}" text-anchor="end" font-size="11">{v:.2}</text>"#,
                ML - 4.0,
                ML - 8.0,
                y + 4.0
            );
        }
        // X ticks: the distinct x values themselves.
        let mut uxs: Vec<f64> = xs.clone();
        uxs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        uxs.dedup();
        for &x in &uxs {
            let px = sx(x);
            let _ = writeln!(
                out,
                r#"<line x1="{px}" y1="{}" x2="{px}" y2="{}" stroke="black"/><text x="{px}" y="{}" text-anchor="middle" font-size="10">{}</text>"#,
                H - MB,
                H - MB + 4.0,
                H - MB + 18.0,
                trim_float(x)
            );
        }
        // Labels.
        let _ = writeln!(
            out,
            r#"<text x="{}" y="{}" text-anchor="middle" font-size="12">{}</text>"#,
            (ML + W - MR) / 2.0,
            H - 28.0,
            esc(&self.x_label)
        );
        let _ = writeln!(
            out,
            r#"<text x="16" y="{}" text-anchor="middle" font-size="12" transform="rotate(-90 16 {})">{}</text>"#,
            (MT + H - MB) / 2.0,
            (MT + H - MB) / 2.0,
            esc(&self.y_label)
        );
        // Series.
        for (i, (name, pts)) in self.series.iter().enumerate() {
            let color = COLORS[i % COLORS.len()];
            let path: Vec<String> = pts
                .iter()
                .enumerate()
                .map(|(j, &(x, y))| {
                    format!(
                        "{}{:.1},{:.1}",
                        if j == 0 { "M" } else { "L" },
                        sx(x),
                        sy(y)
                    )
                })
                .collect();
            let _ = writeln!(
                out,
                r#"<path d="{}" fill="none" stroke="{color}" stroke-width="2"/>"#,
                path.join(" ")
            );
            for &(x, y) in pts {
                let _ = writeln!(
                    out,
                    r#"<circle cx="{:.1}" cy="{:.1}" r="3" fill="{color}"/>"#,
                    sx(x),
                    sy(y)
                );
            }
            // Legend.
            let lx = ML + 12.0 + 150.0 * (i as f64 % 4.0);
            let ly = MT - 12.0 + 14.0 * (i as f64 / 4.0).floor();
            let _ = writeln!(
                out,
                r#"<rect x="{lx}" y="{}" width="10" height="10" fill="{color}"/><text x="{}" y="{}" font-size="11">{}</text>"#,
                ly - 9.0,
                lx + 14.0,
                ly,
                esc(name)
            );
        }
        out.push_str("</svg>");
        out
    }
}

/// A grouped bar chart: per group (x category), one bar per series.
pub struct BarPlot {
    /// Chart title.
    pub title: String,
    /// Y-axis label.
    pub y_label: String,
    /// Group labels (x categories).
    pub groups: Vec<String>,
    /// `(series name, one value per group)`.
    pub series: Vec<(String, Vec<f64>)>,
}

impl BarPlot {
    /// Render to an SVG string.
    pub fn render(&self) -> String {
        let mut out = svg_header(&self.title);
        let ymax = self
            .series
            .iter()
            .flat_map(|(_, v)| v.iter().copied())
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let sy = |y: f64| H - MB - y / ymax * (H - MT - MB);
        // Axes and ticks.
        let _ = writeln!(
            out,
            r#"<line x1="{ML}" y1="{}" x2="{}" y2="{}" stroke="black"/>"#,
            H - MB,
            W - MR,
            H - MB
        );
        let _ = writeln!(
            out,
            r#"<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{}" stroke="black"/>"#,
            H - MB
        );
        for i in 0..=4 {
            let v = ymax * i as f64 / 4.0;
            let y = sy(v);
            let _ = writeln!(
                out,
                r#"<line x1="{}" y1="{y}" x2="{ML}" y2="{y}" stroke="black"/><text x="{}" y="{}" text-anchor="end" font-size="11">{v:.2}</text>"#,
                ML - 4.0,
                ML - 8.0,
                y + 4.0
            );
        }
        let _ = writeln!(
            out,
            r#"<text x="16" y="{}" text-anchor="middle" font-size="12" transform="rotate(-90 16 {})">{}</text>"#,
            (MT + H - MB) / 2.0,
            (MT + H - MB) / 2.0,
            esc(&self.y_label)
        );
        let ngroups = self.groups.len().max(1) as f64;
        let nseries = self.series.len().max(1) as f64;
        let group_w = (W - ML - MR) / ngroups;
        let bar_w = (group_w * 0.8) / nseries;
        for (g, label) in self.groups.iter().enumerate() {
            let gx = ML + g as f64 * group_w;
            let _ = writeln!(
                out,
                r#"<text x="{}" y="{}" text-anchor="middle" font-size="11">{}</text>"#,
                gx + group_w / 2.0,
                H - MB + 18.0,
                esc(label)
            );
            for (s, (_, values)) in self.series.iter().enumerate() {
                let v = values.get(g).copied().unwrap_or(0.0);
                let x = gx + group_w * 0.1 + s as f64 * bar_w;
                let y = sy(v);
                let _ = writeln!(
                    out,
                    r#"<rect x="{x:.1}" y="{y:.1}" width="{:.1}" height="{:.1}" fill="{}"/>"#,
                    bar_w * 0.92,
                    (H - MB - y).max(0.0),
                    COLORS[s % COLORS.len()]
                );
            }
        }
        for (s, (name, _)) in self.series.iter().enumerate() {
            let lx = ML + 12.0 + 150.0 * (s as f64 % 4.0);
            let ly = MT - 12.0 + 14.0 * (s as f64 / 4.0).floor();
            let _ = writeln!(
                out,
                r#"<rect x="{lx}" y="{}" width="10" height="10" fill="{}"/><text x="{}" y="{}" font-size="11">{}</text>"#,
                ly - 9.0,
                COLORS[s % COLORS.len()],
                lx + 14.0,
                ly,
                esc(name)
            );
        }
        out.push_str("</svg>");
        out
    }
}

/// Save rendered SVG under `dir/<name>.svg`.
pub fn save_svg(svg: &str, dir: &Path, name: &str) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join(format!("{name}.svg")), svg)
}

fn min_max(v: &[f64]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in v {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    #[expect(
        clippy::float_cmp,
        reason = "an axis is degenerate exactly when every value is the same"
    )]
    if lo == hi {
        hi = lo + 1.0;
    }
    (lo, hi)
}

#[expect(
    clippy::float_cmp,
    reason = "integral values print without decimals, so integrality is an exact test"
)]
fn trim_float(x: f64) -> String {
    if x == x.floor() && x.abs() < 1e6 {
        format!("{}", x as i64)
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_plot_renders_series_and_labels() {
        let p = LinePlot {
            title: "demo".into(),
            x_label: "selectivity".into(),
            y_label: "speedup".into(),
            log_x: true,
            series: vec![
                (
                    "MultiMap".into(),
                    vec![(0.01, 1.2), (1.0, 1.0), (100.0, 0.7)],
                ),
                (
                    "Hilbert".into(),
                    vec![(0.01, 2.0), (1.0, 2.2), (100.0, 1.0)],
                ),
            ],
        };
        let svg = p.render();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert!(svg.contains("MultiMap"));
        assert!(svg.contains("speedup"));
        assert_eq!(svg.matches("<path").count(), 2);
        assert_eq!(svg.matches("<circle").count(), 6);
    }

    #[test]
    fn bar_plot_renders_groups() {
        let p = BarPlot {
            title: "beams".into(),
            y_label: "ms/cell".into(),
            groups: vec!["Dim0".into(), "Dim1".into()],
            series: vec![
                ("Naive".into(), vec![0.05, 2.5]),
                ("MultiMap".into(), vec![0.07, 1.3]),
            ],
        };
        let svg = p.render();
        // 2 groups x 2 series bars + 2 legend rects.
        assert_eq!(svg.matches("<rect").count(), 1 + 4 + 2); // + background
        assert!(svg.contains("Dim1"));
    }

    #[test]
    fn escaping_and_save() {
        let p = BarPlot {
            title: "a < b & c".into(),
            y_label: "y".into(),
            groups: vec!["g".into()],
            series: vec![("s".into(), vec![1.0])],
        };
        let svg = p.render();
        assert!(svg.contains("a &lt; b &amp; c"));
        let dir = std::env::temp_dir().join("multimap-plot-test");
        save_svg(&svg, &dir, "t").unwrap();
        assert!(dir.join("t.svg").exists());
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        let p = LinePlot {
            title: "empty".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            log_x: false,
            series: vec![],
        };
        assert!(p.render().ends_with("</svg>"));
        let p = BarPlot {
            title: "flat".into(),
            y_label: "y".into(),
            groups: vec!["g".into()],
            series: vec![("s".into(), vec![0.0])],
        };
        assert!(p.render().ends_with("</svg>"));
    }
}
