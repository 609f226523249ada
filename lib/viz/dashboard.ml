module J = Telemetry.Json
module T = Telemetry.Timeline

let opt_float = function Some t -> J.Float t | None -> J.Null

let burst_json (b : T.burst) =
  J.Obj
    [
      ("faults", J.Int b.T.faults);
      ("agents", J.Int b.T.agents);
      ("first_at", J.Float b.T.first_at);
      ("last_at", J.Float b.T.last_at);
      ("broke", J.Bool b.T.broke);
      ("recovered_at", opt_float b.T.recovered_at);
      ("recovery", opt_float (T.recovery_time b));
    ]

let run_json (s : T.summary) =
  let r = s.T.run in
  J.Obj
    [
      ("id", J.String r.Telemetry.Events.id);
      ("protocol", J.String r.Telemetry.Events.protocol);
      ("engine", J.String r.Telemetry.Events.engine);
      ("n", J.Int r.Telemetry.Events.n);
      ("seed", J.Int r.Telemetry.Events.seed);
      ("trial", (match r.Telemetry.Events.trial with Some t -> J.Int t | None -> J.Null));
      ("events", J.Int s.T.events);
      ("steps", J.Int s.T.steps);
      ("first_correct_at", opt_float s.T.first_correct_at);
      ("last_correct_at", opt_float s.T.last_correct_at);
      ("violations", J.Int s.T.violations);
      ("silent_at", opt_float s.T.silent_at);
      ("end_time", J.Float s.T.end_time);
      ("end_interactions", J.Int s.T.end_interactions);
      ("availability", J.Float (T.availability s));
      ("bursts", J.List (List.map burst_json s.T.bursts));
    ]

let snapshot_json ?(dropped = 0) ~path summaries =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 summaries in
  let outcomes = List.concat_map (fun s -> List.map T.outcome s.T.bursts) summaries in
  let count p = List.length (List.filter p outcomes) in
  let recovery_times =
    List.filter_map (function T.Recovered { time; _ } -> Some time | _ -> None) outcomes
    |> List.sort compare
  in
  let end_time = List.fold_left (fun acc s -> Float.max acc s.T.end_time) 0.0 summaries in
  J.Obj
    [
      ("v", J.Int 1);
      ("path", J.String path);
      ("dropped", J.Int dropped);
      ( "aggregate",
        J.Obj
          [
            ("runs", J.Int (List.length summaries));
            ("events", J.Int (sum (fun s -> s.T.events)));
            ("steps", J.Int (sum (fun s -> s.T.steps)));
            ("violations", J.Int (sum (fun s -> s.T.violations)));
            ("availability", J.Float (Charts.mean_availability summaries));
            ("end_time", J.Float end_time);
            ("bursts", J.Int (List.length outcomes));
            ("broke", J.Int (count (function T.Absorbed -> false | _ -> true)));
            ("recovered", J.Int (List.length recovery_times));
            ("censored", J.Int (count (function T.Censored -> true | _ -> false)));
          ] );
      ("runs", J.List (List.map run_json summaries));
      ("recovery_times", J.List (List.map (fun t -> J.Float t) recovery_times));
    ]

(* The page is fully self-contained: inline CSS (palette custom
   properties, dark mode via prefers-color-scheme with a data-theme
   override) and inline JS (EventSource client + two hand-rolled SVG
   strips). No external assets, no clock reads — the x axes below are
   stream time. *)
let page ~path =
  let html_path = Svg.escape path in
  Printf.sprintf
    {html|<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8"/>
<meta name="viewport" content="width=device-width, initial-scale=1"/>
<title>soak dashboard — %s</title>
<style>
.viz-root {
  color-scheme: light;
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7; --ring: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --page: #0d0d0d; --surface-1: #1a1a19;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835; --ring: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --page: #0d0d0d; --surface-1: #1a1a19;
  --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
  --grid: #2c2c2a; --baseline: #383835; --ring: rgba(255,255,255,0.10);
  --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
}
* { box-sizing: border-box; }
body { margin: 0; }
.viz-root {
  min-height: 100vh; background: var(--page); color: var(--text-primary);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  padding: 20px; font-size: 14px;
}
header h1 { font-size: 18px; margin: 0 0 2px; }
header .sub { color: var(--text-secondary); font-size: 12px; margin-bottom: 16px; }
header code { font-family: ui-monospace, monospace; font-size: 11px; }
#status { font-weight: 600; }
#theme { float: right; background: var(--surface-1); color: var(--text-secondary);
  border: 1px solid var(--ring); border-radius: 6px; cursor: pointer; padding: 2px 8px; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; margin-bottom: 16px; }
.tile { background: var(--surface-1); border: 1px solid var(--ring); border-radius: 8px;
  padding: 10px 14px; min-width: 108px; }
.tile .v { font-size: 22px; }
.tile .l { color: var(--muted); font-size: 11px; margin-top: 2px; }
.charts { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 16px; }
figure { background: var(--surface-1); border: 1px solid var(--ring); border-radius: 8px;
  margin: 0; padding: 10px 12px 6px; }
figcaption { color: var(--text-secondary); font-size: 12px; margin-bottom: 4px; }
svg text { fill: var(--muted); font-size: 10px; font-variant-numeric: tabular-nums; }
table { border-collapse: collapse; background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; font-size: 12px; width: 100%%; }
th, td { text-align: right; padding: 5px 10px; font-variant-numeric: tabular-nums; }
th:first-child, td:first-child { text-align: left; font-family: ui-monospace, monospace; }
th { color: var(--muted); font-weight: 500; border-bottom: 1px solid var(--grid); }
tr + tr td { border-top: 1px solid var(--grid); }
</style>
</head>
<body>
<div class="viz-root">
<header>
  <button id="theme" title="toggle light/dark">◐</button>
  <h1>Live soak dashboard</h1>
  <div class="sub">tailing <code>%s</code> · <span id="status">connecting…</span>
    <span id="dropped"></span></div>
</header>
<section class="tiles">
  <div class="tile"><div class="v" id="t-runs">–</div><div class="l">runs</div></div>
  <div class="tile"><div class="v" id="t-events">–</div><div class="l">events</div></div>
  <div class="tile"><div class="v" id="t-avail">–</div><div class="l">availability</div></div>
  <div class="tile"><div class="v" id="t-viol">–</div><div class="l">correctness losses</div></div>
  <div class="tile"><div class="v" id="t-bursts">–</div><div class="l">bursts (recovered/broke)</div></div>
  <div class="tile"><div class="v" id="t-time">–</div><div class="l">stream time</div></div>
</section>
<section class="charts">
  <figure><figcaption>mean availability over stream time</figcaption>
    <svg id="avail" width="460" height="150" viewBox="0 0 460 150"></svg></figure>
  <figure><figcaption>recovery-time CDF (pooled bursts)</figcaption>
    <svg id="cdf" width="460" height="150" viewBox="0 0 460 150"></svg></figure>
</section>
<table>
  <thead><tr><th>run</th><th>n</th><th>engine</th><th>events</th><th>losses</th>
    <th>availability</th><th>bursts</th><th>last t</th></tr></thead>
  <tbody id="runs"></tbody>
</table>
</div>
<script>
"use strict";
const $ = id => document.getElementById(id);
const fmt = (x, d) => x == null ? "–" : (+x).toFixed(d == null ? 2 : d);
const hist = [];   // [stream end_time, mean availability] per snapshot

$("theme").addEventListener("click", () => {
  const r = document.documentElement;
  const dark = r.dataset.theme === "dark" ||
    (r.dataset.theme !== "light" && matchMedia("(prefers-color-scheme: dark)").matches);
  r.dataset.theme = dark ? "light" : "dark";
});

function axisFrame(svg, w, h, pad) {
  return `<line x1="${pad}" y1="${h - pad}" x2="${w - 6}" y2="${h - pad}"
    stroke="var(--baseline)"/><line x1="${pad}" y1="8" x2="${pad}" y2="${h - pad}"
    stroke="var(--baseline)"/>`;
}

// Availability strip: y in [0,1], x = stream time of each snapshot.
function drawAvail() {
  const svg = $("avail"), w = 460, h = 150, pad = 30;
  if (hist.length === 0) { svg.innerHTML = ""; return; }
  const x1 = hist[hist.length - 1][0] || 1;
  const X = t => pad + (w - 6 - pad) * (x1 ? t / x1 : 0);
  const Y = a => 8 + (h - pad - 8) * (1 - a);
  const pts = hist.map(p => `${X(p[0]).toFixed(1)},${Y(p[1]).toFixed(1)}`).join(" ");
  svg.innerHTML = axisFrame(svg, w, h, pad) +
    `<line x1="${pad}" y1="${Y(1)}" x2="${w - 6}" y2="${Y(1)}" stroke="var(--grid)"/>` +
    `<text x="${pad - 6}" y="${Y(1) + 3}" text-anchor="end">1</text>` +
    `<text x="${pad - 6}" y="${Y(0) + 3}" text-anchor="end">0</text>` +
    `<text x="${w - 6}" y="${h - pad + 12}" text-anchor="end">t=${fmt(x1, 1)}</text>` +
    `<polyline points="${pts}" fill="none" stroke="var(--series-1)" stroke-width="2"
      stroke-linejoin="round"/>`;
}

// Pooled recovery-time CDF (times arrive sorted).
function drawCdf(times) {
  const svg = $("cdf"), w = 460, h = 150, pad = 30;
  if (!times || times.length === 0) {
    svg.innerHTML = `<text x="${w / 2}" y="${h / 2}" text-anchor="middle">no recoveries yet</text>`;
    return;
  }
  const x1 = times[times.length - 1] || 1;
  const X = t => pad + (w - 6 - pad) * (t / x1);
  const Y = f => 8 + (h - pad - 8) * (1 - f);
  let d = `M${X(times[0]).toFixed(1)} ${Y(1 / times.length).toFixed(1)}`;
  times.forEach((t, i) => {
    d += `H${X(t).toFixed(1)} V${Y((i + 1) / times.length).toFixed(1)}`;
  });
  svg.innerHTML = axisFrame(svg, w, h, pad) +
    `<text x="${pad - 6}" y="${Y(1) + 3}" text-anchor="end">1</text>` +
    `<text x="${pad - 6}" y="${Y(0) + 3}" text-anchor="end">0</text>` +
    `<text x="${w - 6}" y="${h - pad + 12}" text-anchor="end">${fmt(x1, 1)}</text>` +
    `<path d="${d}" fill="none" stroke="var(--series-2)" stroke-width="2"/>`;
}

function draw(s) {
  const a = s.aggregate;
  $("t-runs").textContent = a.runs;
  $("t-events").textContent = a.events;
  $("t-avail").textContent = fmt(a.availability, 3);
  $("t-viol").textContent = a.violations;
  $("t-bursts").textContent = `${a.recovered}/${a.broke}`;
  $("t-time").textContent = fmt(a.end_time, 1);
  $("dropped").textContent = s.dropped ? `· ${s.dropped} undecodable lines skipped` : "";
  hist.push([a.end_time, a.availability]);
  drawAvail();
  drawCdf(s.recovery_times);
  $("runs").innerHTML = s.runs.map(r =>
    `<tr><td>${r.id}</td><td>${r.n}</td><td>${r.engine}</td><td>${r.events}</td>` +
    `<td>${r.violations}</td><td>${fmt(r.availability, 3)}</td>` +
    `<td>${r.bursts.length}</td><td>${fmt(r.end_time, 1)}</td></tr>`).join("");
}

const es = new EventSource("/events");
es.onopen = () => { $("status").textContent = "live"; };
es.onerror = () => { $("status").textContent = "disconnected — retrying"; };
es.onmessage = e => { draw(JSON.parse(e.data)); $("status").textContent = "live"; };
</script>
</body>
</html>
|html}
    html_path html_path
