"""Deterministic alerting and SLO burn-rate accounting over the metrics.

The serving layer's metrics surface (:mod:`repro.serve.metrics`) reads
every counter from the same authoritative sources the end-of-run
roll-up is computed from.  This module builds the operator layer on top of it:

- :class:`AlertRule` — a threshold or rate-of-change condition over
  any counter, gauge, or histogram in a
  :class:`~repro.serve.metrics.MetricsRegistry`, with for-duration /
  clear-duration hysteresis.
- :class:`SloSpec` — a service-level objective: either a latency bound
  over an integer-bucket histogram (``kind="quantile"``: the fraction
  of observations above the bound must stay within ``1 - objective``)
  or a bad/total counter ratio (``kind="ratio"``: e.g. spill rate,
  degraded-job rate).  Both reduce each evaluation to an integer
  ``(bad, total)`` pair taken straight from bucket/counter values, so
  budget accounting is exact and merge-safe across the fleet — the
  folded per-worker registries produce the same pair one process
  would.  Burn rates come from deltas over two logical-time windows
  (fast/slow), the standard multi-window paging recipe.
- :class:`AlertManager` — evaluates rules and SLOs against that
  registry on every service metrics read or alert tick, runs the
  ``ok -> pending -> firing -> resolved`` state machine per condition,
  and appends one structured event per transition (optionally to a
  JSONL log).  Rules and SLOs load from JSON
  (:meth:`AlertManager.from_json`).

Determinism contract: evaluation is driven by the service's *logical*
clock (the last submitted arrival time), never wall time, and every
value a rule can observe is either a counter/gauge read from its source
or derived from integer histogram buckets.  Feed the manager rules over the
deterministic surface (anything except the wall-clock gauges
``serve_uptime_seconds`` / ``serve_decisions_per_second`` and the
latency histograms' ``sum``), drive it at deterministic points, and
the full event stream is bit-identical across policy x engine x worker
count x transport, and continues exactly across WAL checkpoint
recovery — the manager's state rides the service snapshot, and
recovery replay never evaluates, so nothing double-fires.

The manager holds only plain data (dicts, lists, numbers, strings):
it deep-copies and pickles inside service snapshots like the registry
does.  The JSONL log is addressed by *path* — no file handle survives
in the state.
"""

from __future__ import annotations

import json
import operator
from bisect import bisect_right

__all__ = [
    "AlertRule",
    "SloSpec",
    "AlertManager",
    "load_alert_config",
]

_INF = float("inf")

# ``operator`` builtins, not lambdas: resolved once at rule
# construction (picklable, and one dict probe less per tick).
_OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
}


def _parse_metric(metric: str) -> tuple[str, dict | None]:
    """Split ``name{label="value",...}`` into (name, labels)."""
    if "{" not in metric:
        return metric, None
    name, _, rest = metric.partition("{")
    rest = rest.rstrip("}")
    labels = {}
    for part in rest.split(","):
        if not part:
            continue
        k, _, v = part.partition("=")
        labels[k.strip()] = v.strip().strip('"')
    return name, labels or None


class AlertRule:
    """One alert condition over a registry metric.

    Parameters
    ----------
    name:
        Rule identity; appears in every event.
    metric:
        Sample name, with an optional ``{label="value"}`` suffix
        (``serve_lane_occupancy_ratio{lane="0"}``).
    op / threshold:
        The breach condition ``value <op> threshold``; ``op`` is one of
        ``> >= < <= == !=``.
    kind:
        ``"threshold"`` compares the metric's current value;
        ``"rate"`` compares its rate of change per logical second
        between consecutive evaluations (the first evaluation primes
        the previous sample and cannot breach).
    for_duration:
        Logical seconds the condition must hold before ``pending``
        escalates to ``firing`` (0 fires on the first breaching tick).
    clear_duration:
        Logical seconds the condition must stay clear before a firing
        alert resolves.
    quantile:
        For histogram metrics: evaluate this quantile (``[0, 1]``, via
        :meth:`~repro.serve.metrics.Histogram.quantile`) instead of the
        observation count.
    description:
        Free-form operator annotation, carried into events.
    """

    __slots__ = (
        "name", "metric", "op", "threshold", "kind",
        "for_duration", "clear_duration", "quantile", "description",
        "_base", "_labels", "_op",
    )

    def __init__(
        self,
        name: str,
        metric: str,
        *,
        op: str = ">",
        threshold: float = 0.0,
        kind: str = "threshold",
        for_duration: float = 0.0,
        clear_duration: float = 0.0,
        quantile: float | None = None,
        description: str = "",
    ):
        if op not in _OPS:
            raise ValueError(f"unknown alert op {op!r}")
        if kind not in ("threshold", "rate"):
            raise ValueError(f"unknown alert kind {kind!r}")
        if for_duration < 0 or clear_duration < 0:
            raise ValueError("hysteresis durations must be >= 0")
        if quantile is not None and not 0.0 <= quantile <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        self.name = name
        self.metric = metric
        self.op = op
        self.threshold = threshold
        self.kind = kind
        self.for_duration = for_duration
        self.clear_duration = clear_duration
        self.quantile = quantile
        self.description = description
        self._base, self._labels = _parse_metric(metric)
        self._op = _OPS[op]

    def value_of(self, m) -> float:
        """The rule's input value from an already-resolved metric."""
        if m.kind == "histogram":
            if self.quantile is not None:
                return m.quantile(self.quantile)
            return m.count
        return m.value

    def value_from(self, registry) -> float | None:
        """The rule's input value, or ``None`` when the metric is absent."""
        m = registry.get(self._base, self._labels)
        return None if m is None else self.value_of(m)

    def to_dict(self) -> dict:
        d = {
            "name": self.name, "metric": self.metric, "op": self.op,
            "threshold": self.threshold, "kind": self.kind,
        }
        if self.for_duration:
            d["for_duration"] = self.for_duration
        if self.clear_duration:
            d["clear_duration"] = self.clear_duration
        if self.quantile is not None:
            d["quantile"] = self.quantile
        if self.description:
            d["description"] = self.description
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "AlertRule":
        d = dict(d)
        name = d.pop("name")
        metric = d.pop("metric")
        return cls(name, metric, **d)


class SloSpec:
    """One service-level objective with multi-window burn-rate alerting.

    Two kinds, both reducing to an integer ``(bad, total)`` pair per
    evaluation:

    - ``kind="quantile"``: ``metric`` names a histogram; ``bad`` is the
      number of observations in buckets whose upper bound exceeds
      ``target`` (exact — buckets are integers), ``total`` the
      observation count.  The error budget is ``1 - objective`` (e.g.
      objective 0.99 allows 1% of observations above target).
    - ``kind="ratio"``: ``metric`` names the bad-event counter,
      ``denominator`` the total counter; ``budget`` is the allowed bad
      fraction.

    Burn rate over a window is ``(delta_bad / delta_total) / budget``:
    1.0 means the budget is being spent exactly at the sustainable
    pace; the manager raises the SLO's alert when *both* the fast and
    the slow window burn at or above ``burn_threshold`` (the standard
    multi-window rule: the fast window catches the onset, the slow
    window suppresses blips).  Windows are logical seconds.
    """

    __slots__ = (
        "name", "metric", "kind", "target", "objective", "denominator",
        "budget", "fast_window", "slow_window", "burn_threshold",
        "for_duration", "clear_duration", "description",
        "_base", "_labels", "_den_base", "_den_labels",
    )

    def __init__(
        self,
        name: str,
        metric: str,
        *,
        kind: str = "ratio",
        target: float | None = None,
        objective: float | None = None,
        denominator: str | None = None,
        budget: float | None = None,
        fast_window: float = 300.0,
        slow_window: float = 3600.0,
        burn_threshold: float = 1.0,
        for_duration: float = 0.0,
        clear_duration: float = 0.0,
        description: str = "",
    ):
        if kind not in ("quantile", "ratio"):
            raise ValueError(f"unknown SLO kind {kind!r}")
        if kind == "quantile":
            if target is None or objective is None:
                raise ValueError("quantile SLO needs target= and objective=")
            if not 0.0 < objective < 1.0:
                raise ValueError("objective must be in (0, 1)")
            budget = 1.0 - objective
        else:
            if denominator is None or budget is None:
                raise ValueError("ratio SLO needs denominator= and budget=")
        if budget <= 0:
            raise ValueError("error budget must be > 0")
        if fast_window <= 0 or slow_window <= 0:
            raise ValueError("burn windows must be > 0")
        self.name = name
        self.metric = metric
        self.kind = kind
        self.target = target
        self.objective = objective
        self.denominator = denominator
        self.budget = budget
        self.fast_window = fast_window
        self.slow_window = slow_window
        self.burn_threshold = burn_threshold
        self.for_duration = for_duration
        self.clear_duration = clear_duration
        self.description = description
        self._base, self._labels = _parse_metric(metric)
        if denominator is not None:
            self._den_base, self._den_labels = _parse_metric(denominator)
        else:
            self._den_base = self._den_labels = None

    def sample_of(self, m, den) -> tuple[int, int]:
        """The ``(bad, total)`` pair from already-resolved metrics."""
        if self.kind == "quantile":
            if m.kind != "histogram":
                raise ValueError(
                    f"SLO {self.name!r}: {self.metric!r} is not a histogram"
                )
            k = bisect_right(m.edges, self.target)
            good = sum(m.counts[:k])
            return m.count - good, m.count
        return int(m.value), int(den.value)

    def sample(self, registry) -> tuple[int, int] | None:
        """The integer ``(bad, total)`` pair, or ``None`` if absent."""
        m = registry.get(self._base, self._labels)
        if m is None:
            return None
        den = None
        if self._den_base is not None:
            den = registry.get(self._den_base, self._den_labels)
            if den is None:
                return None
        return self.sample_of(m, den)

    def to_dict(self) -> dict:
        d = {"name": self.name, "metric": self.metric, "kind": self.kind}
        if self.kind == "quantile":
            d["target"] = self.target
            d["objective"] = self.objective
        else:
            d["denominator"] = self.denominator
            d["budget"] = self.budget
        d["fast_window"] = self.fast_window
        d["slow_window"] = self.slow_window
        if self.burn_threshold != 1.0:
            d["burn_threshold"] = self.burn_threshold
        if self.for_duration:
            d["for_duration"] = self.for_duration
        if self.clear_duration:
            d["clear_duration"] = self.clear_duration
        if self.description:
            d["description"] = self.description
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SloSpec":
        d = dict(d)
        name = d.pop("name")
        metric = d.pop("metric")
        return cls(name, metric, **d)


def _new_state() -> dict:
    return {"state": "ok", "since": None, "clear_since": None, "prev": None}


class AlertManager:
    """Evaluates rules and SLOs against a metrics registry.

    One :meth:`evaluate` call is one tick: the caller (the service's
    metrics read) passes the registry *after* setting the derived
    metrics the rules reference, plus the logical clock; the manager reads each condition's inputs, steps its
    state machine, and appends one event per transition to
    :attr:`events` (and, when ``log_path`` is set, one JSON line per
    event to that file).

    Event shape::

        {"seq": 7, "clock": 81234.5, "decided": 1800,
         "event": "firing", "rule": "capacity-drop",
         "value": -2.1e9, "threshold": 0.0}

    SLO events carry ``"slo"`` instead of ``"rule"`` plus the integer
    ``bad``/``total`` pair and both burn rates.  ``seq`` is the
    evaluation tick the event was emitted on; ticks with no transition
    emit nothing.

    Everything is plain data — the manager deep-copies and pickles
    inside service snapshots, which is what lets WAL recovery continue
    the event stream instead of resetting it.
    """

    # Resolved metric handles, keyed by rule/SLO object and valid only
    # for ``_pin_reg``; dropped from pickles and deep-copies (see
    # ``__getstate__``) and rebuilt on the first tick against a new
    # registry, so snapshots never freeze a handle to a dead metric.
    _pins = None
    _pin_reg = None

    def __init__(self, rules=(), slos=(), *, log_path=None):
        self.rules = list(rules)
        self.slos = list(slos)
        self.events: list[dict] = []
        self.seq = 0
        self.log_path = None if log_path is None else str(log_path)
        self._rule_state: dict = {}
        self._slo_state: dict = {}

    def __getstate__(self):
        d = self.__dict__.copy()
        d.pop("_pins", None)
        d.pop("_pin_reg", None)
        return d

    # -- configuration ---------------------------------------------------

    def add_rule(self, rule: AlertRule) -> None:
        self.rules.append(rule)

    def add_slo(self, slo: SloSpec) -> None:
        self.slos.append(slo)

    @classmethod
    def from_json(cls, path, *, log_path=None) -> "AlertManager":
        """Build a manager from a JSON config file.

        The file holds ``{"rules": [...], "slos": [...]}`` (either key
        optional) or a bare list, treated as rules.
        """
        rules, slos = load_alert_config(path)
        return cls(rules, slos, log_path=log_path)

    # -- evaluation ------------------------------------------------------

    def referenced(self) -> list:
        """Every ``(base_name, labels)`` pair the rules and SLOs read.

        Lets a metrics owner sync only what an evaluation tick will
        actually look at (see ``PlacementService.evaluate_alerts``);
        labels are the parsed dict or ``None``.
        """
        out = [(r._base, r._labels) for r in self.rules]
        for s in self.slos:
            out.append((s._base, s._labels))
            if s._den_base is not None:
                out.append((s._den_base, s._den_labels))
        return out

    def evaluate(self, registry, *, clock: float, decided: int = 0) -> list:
        """One evaluation tick; returns the events it emitted."""
        seq = self.seq
        self.seq = seq + 1
        pins = self._pins
        if pins is None or self._pin_reg is not registry:
            pins = self._pins = {}
            self._pin_reg = registry
        new: list[dict] = []
        for rule in self.rules:
            st = self._rule_state.get(rule.name)
            if st is None:
                st = self._rule_state[rule.name] = _new_state()
            m = pins.get(rule)
            if m is None:
                m = registry.get(rule._base, rule._labels)
                if m is None:
                    continue  # absent now, maybe registered later
                pins[rule] = m
            v = rule.value_of(m)
            if rule.kind == "rate":
                prev, st["prev"] = st["prev"], (clock, v)
                if prev is None:
                    continue
                dt = clock - prev[0]
                value = (v - prev[1]) / dt if dt > 0 else 0.0
            else:
                value = v
            breach = rule._op(value, rule.threshold)
            self._step(
                st, breach, clock,
                rule.for_duration, rule.clear_duration,
                new, seq, decided,
                {"rule": rule.name, "value": value,
                 "threshold": rule.threshold},
            )
        for slo in self.slos:
            st = self._slo_state.get(slo.name)
            if st is None:
                st = self._slo_state[slo.name] = _new_state()
                st["history"] = []
                st["status"] = None
            entry = pins.get(slo)
            if entry is None:
                m = registry.get(slo._base, slo._labels)
                if m is None:
                    continue
                den = None
                if slo._den_base is not None:
                    den = registry.get(slo._den_base, slo._den_labels)
                    if den is None:
                        continue
                entry = pins[slo] = (m, den)
            bad, total = slo.sample_of(*entry)
            hist = st["history"]
            hist.append((clock, bad, total))
            self._trim(hist, clock - slo.slow_window)
            fast = self._burn(hist, clock, slo.fast_window, slo.budget)
            slow = self._burn(hist, clock, slo.slow_window, slo.budget)
            status = st["status"]
            if status is None:
                st["status"] = {
                    "bad": bad, "total": total,
                    "fast_burn": fast, "slow_burn": slow,
                    "budget": slo.budget,
                }
            else:  # update in place: one less allocation per tick
                status["bad"] = bad
                status["total"] = total
                status["fast_burn"] = fast
                status["slow_burn"] = slow
            breach = fast >= slo.burn_threshold and slow >= slo.burn_threshold
            self._step(
                st, breach, clock,
                slo.for_duration, slo.clear_duration,
                new, seq, decided,
                {"slo": slo.name, "bad": bad, "total": total,
                 "fast_burn": fast, "slow_burn": slow,
                 "budget": slo.budget},
            )
        return new

    def _step(
        self, st, breach, clock, for_duration, clear_duration,
        new, seq, decided, extra,
    ) -> None:
        """Advance one condition's ok/pending/firing state machine."""
        if breach:
            st["clear_since"] = None
            if st["state"] == "ok":
                st["state"] = "pending"
                st["since"] = clock
                self._emit(new, seq, clock, decided, "pending", extra)
            if (
                st["state"] == "pending"
                and clock - st["since"] >= for_duration
            ):
                st["state"] = "firing"
                self._emit(new, seq, clock, decided, "firing", extra)
        elif st["state"] == "pending":
            # Breach cleared before it ever fired: silently back to ok.
            st["state"] = "ok"
            st["since"] = None
        elif st["state"] == "firing":
            if st["clear_since"] is None:
                st["clear_since"] = clock
            if clock - st["clear_since"] >= clear_duration:
                st["state"] = "ok"
                st["since"] = st["clear_since"] = None
                self._emit(new, seq, clock, decided, "resolved", extra)

    def _emit(self, new, seq, clock, decided, event, extra) -> None:
        ev = {"seq": seq, "clock": clock, "decided": decided,
              "event": event}
        ev.update(extra)
        self.events.append(ev)
        new.append(ev)
        if self.log_path is not None:
            with open(self.log_path, "a") as fh:
                fh.write(json.dumps(ev, default=float) + "\n")

    @staticmethod
    def _trim(hist, horizon: float) -> None:
        """Drop samples older than ``horizon``, keeping the boundary one.

        The newest sample at or before the horizon anchors the slow
        window's delta; everything older can never be referenced again.
        """
        # The probe tuple sorts after every real (clock, bad, total)
        # entry at the same clock, so the insertion point counts the
        # samples with clock <= horizon; keep the newest of them.
        i = bisect_right(hist, (horizon, _INF, _INF))
        if i > 1:
            del hist[:i - 1]

    @staticmethod
    def _burn(hist, clock: float, window: float, budget: float) -> float:
        """Budget burn rate over the trailing ``window`` logical seconds.

        Delta against the newest sample at or before ``clock - window``
        (or the oldest available when the history is still shorter than
        the window).  1.0 = spending the budget exactly at the
        sustainable pace.
        """
        now = hist[-1]
        i = bisect_right(hist, (clock - window, _INF, _INF))
        anchor = hist[i - 1] if i else hist[0]
        d_total = now[2] - anchor[2]
        if d_total <= 0:
            return 0.0
        d_bad = now[1] - anchor[1]
        return (d_bad / d_total) / budget

    # -- introspection ---------------------------------------------------

    def firing(self) -> list[str]:
        """Names of rules and SLOs currently in the ``firing`` state."""
        out = [
            n for n, st in self._rule_state.items() if st["state"] == "firing"
        ]
        out += [
            n for n, st in self._slo_state.items() if st["state"] == "firing"
        ]
        return sorted(out)

    def fired(self) -> list[str]:
        """Names that have *ever* fired (from the event stream)."""
        seen = []
        for ev in self.events:
            if ev["event"] == "firing":
                name = ev.get("rule") or ev.get("slo")
                if name not in seen:
                    seen.append(name)
        return sorted(seen)

    def slo_status(self) -> dict:
        """Last-evaluated budget accounting per SLO.

        ``{name: {"bad", "total", "fast_burn", "slow_burn", "budget",
        "state"}}``; an SLO that has never sampled maps to ``None``.
        """
        out = {}
        for slo in self.slos:
            st = self._slo_state.get(slo.name)
            if st is None or st["status"] is None:
                out[slo.name] = None
            else:
                out[slo.name] = dict(st["status"], state=st["state"])
        return out


def load_alert_config(path) -> tuple[list[AlertRule], list[SloSpec]]:
    """Parse a JSON rules/SLOs config file (see :meth:`AlertManager.from_json`)."""
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, list):
        doc = {"rules": doc}
    rules = [AlertRule.from_dict(d) for d in doc.get("rules", ())]
    slos = [SloSpec.from_dict(d) for d in doc.get("slos", ())]
    return rules, slos
