"""Per-site cost attribution: an order-independent reduction of the event IR.

The paper's whole argument is that the allocation *site* (the predictor
call chain) is the right unit for memory decisions, yet telemetry stops
at whole-run totals — a run got slower or more fragmented, but nothing
says *which sites paid for it*.  This module closes that gap:
:func:`price_census` reads the same per-pair lifetime census every
predictor trainer reads and attributes, per call chain:

* **simulated instruction cost** — each object is priced one alloc/free
  pair through :class:`~repro.alloc.costs.CostModel` under the chosen
  allocator profile (``bsd``, ``firstfit``, or ``arena`` with a
  predictor deciding placement per object);
* **heap occupancy** — ``size x lifetime`` byte-time, the integral of
  the object's footprint over the byte-time clock;
* **fragmentation contribution** — the rounding/header padding the
  profile's allocator would add (power-of-two buckets for ``bsd``,
  8-byte alignment plus header for ``firstfit`` and arena-missed
  objects, zero for arena bump allocation), both as bytes and as
  byte-time;
* **misprediction penalty** — ``late_free`` (predicted short, died at or
  past the threshold; the arena-polluting failure of §5.2, with the
  pollution integral ``size x (lifetime - threshold)``) and
  ``missed_short`` (sent to the general heap, actually died under the
  threshold — capture left on the table).

The census (:class:`~repro.runtime.shard.folds.PairCensusFold`) obeys
the shard engine's fold contract — ``add`` is order-independent,
``merge`` commutative — so it folds identically materialized, streamed,
and sharded over the v3 chunk index (``--jobs N``), and the exports are
byte-identical across all three paths (gated in CI and
``tests/test_stream_parity.py``).  Pricing is per pair: every object of
a pair shares its size, padding and predictor verdict.

Deliberate exclusions, documented rather than approximated:

* history-dependent cost terms (first-fit scan lengths, BSD page
  refills, splits, coalesces, arena resets) depend on heap state at
  each event and are therefore not order-independent; the per-object
  base costs attributed here are the deterministic floor.  Whole-run
  totals including those terms live in ``bench`` records and Table 9.
* the ``overflow`` misprediction kind requires replayed arena occupancy
  and is structurally zero here; ``stats`` reports it from a real
  replay.
* every object is charged exactly one alloc and one free — objects
  never freed die at program exit by the trace convention, and their
  exit-time free is priced like any other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.alloc.bsd import bucket_for
from repro.alloc.costs import DEFAULT_COST_MODEL, CostModel
from repro.alloc.firstfit import ALIGNMENT, HEADER_SIZE
from repro.core.predictor import DEFAULT_THRESHOLD, LifetimePredictor
from repro.core.sites import CallChain, ChainTable
from repro.runtime.shard.folds import PairCensusFold

__all__ = [
    "ATTRIB_PROFILES",
    "ATTRIB_SCHEMA_VERSION",
    "SiteAttribution",
    "AttributionProfile",
    "attribute_sites",
    "price_census",
    "profile_for_spec",
    "render_attrib",
    "export_attribution",
    "write_attrib_json",
    "write_attrib_csv",
    "write_attrib_collapsed",
]

#: Allocator profiles an attribution can be priced under.
ATTRIB_PROFILES = ("arena", "firstfit", "bsd")

#: Version stamp of the exported attribution document.
ATTRIB_SCHEMA_VERSION = 1

#: Per-site metric columns in export order (also the CSV column set).
_METRIC_FIELDS = (
    "objects",
    "bytes",
    "touches",
    "short_objects",
    "short_bytes",
    "predicted_objects",
    "alloc_instr",
    "free_instr",
    "total_instr",
    "occupancy_byte_time",
    "frag_bytes",
    "frag_byte_time",
    "late_free",
    "late_free_byte_time",
    "missed_short",
    "missed_short_bytes",
    "mispredictions",
)


@dataclass
class SiteAttribution:
    """One call chain's attributed costs (all integers, all summable)."""

    objects: int = 0
    bytes: int = 0
    touches: int = 0
    short_objects: int = 0
    short_bytes: int = 0
    predicted_objects: int = 0
    alloc_instr: int = 0
    free_instr: int = 0
    occupancy_byte_time: int = 0
    frag_bytes: int = 0
    frag_byte_time: int = 0
    late_free: int = 0
    late_free_byte_time: int = 0
    missed_short: int = 0
    missed_short_bytes: int = 0

    @property
    def total_instr(self) -> int:
        """Attributed instructions, alloc and free sides combined."""
        return self.alloc_instr + self.free_instr

    @property
    def mispredictions(self) -> int:
        """Misprediction events attributable without replay state."""
        return self.late_free + self.missed_short

    def merge(self, other: "SiteAttribution") -> None:
        """Fold another site record into this one (plain sums)."""
        self.objects += other.objects
        self.bytes += other.bytes
        self.touches += other.touches
        self.short_objects += other.short_objects
        self.short_bytes += other.short_bytes
        self.predicted_objects += other.predicted_objects
        self.alloc_instr += other.alloc_instr
        self.free_instr += other.free_instr
        self.occupancy_byte_time += other.occupancy_byte_time
        self.frag_bytes += other.frag_bytes
        self.frag_byte_time += other.frag_byte_time
        self.late_free += other.late_free
        self.late_free_byte_time += other.late_free_byte_time
        self.missed_short += other.missed_short
        self.missed_short_bytes += other.missed_short_bytes

    def to_dict(self) -> Dict[str, int]:
        """All metric columns, derived ones included."""
        return {name: getattr(self, name) for name in _METRIC_FIELDS}


def _firstfit_padding(size: int) -> int:
    """Bytes of alignment + header overhead a first-fit block carries."""
    aligned = ((size + ALIGNMENT - 1) // ALIGNMENT) * ALIGNMENT
    return aligned + HEADER_SIZE - size


def _bsd_padding(size: int) -> int:
    """Bytes of bucket rounding + header overhead a BSD block carries."""
    return (1 << bucket_for(size)) - size


def price_census(
    census: PairCensusFold,
    chains: ChainTable,
    profile: str,
    predictor: Optional[LifetimePredictor] = None,
    model: CostModel = DEFAULT_COST_MODEL,
) -> Dict[int, SiteAttribution]:
    """Per-chain attribution records priced from a lifetime census.

    Every object of a raw ``(chain_id, size)`` pair has the same size,
    padding, prices and predictor verdict, so each pair is priced once
    from its census row: byte and instruction sums are count x price,
    byte-times are size (or padding) x the pair's lifetime sum, and the
    arena's pollution integral ``size x (lifetime - threshold)`` over the
    long-lived objects is ``size x (long lifetime sum - threshold x long
    objects)``.  All integer arithmetic, so the records equal a
    per-object pricing exactly.  Chains keep the census's pair order.
    """
    threshold = census.threshold
    chain_of = chains.chain
    sites: Dict[int, SiteAttribution] = {}
    for (chain_id, size), counts in census.pairs.items():
        objects, short, touches, _, lifetimes, long_lifetimes = counts
        site = sites.get(chain_id)
        if site is None:
            site = sites[chain_id] = SiteAttribution()
        site.objects += objects
        site.bytes += objects * size
        site.touches += touches
        site.occupancy_byte_time += size * lifetimes
        site.short_objects += short
        site.short_bytes += short * size
        if profile == "bsd":
            alloc = model.bsd_alloc_base
            free = model.bsd_free
            frag = _bsd_padding(size)
        elif profile == "firstfit":
            alloc = model.ff_alloc_base
            free = model.ff_free_base
            frag = _firstfit_padding(size)
        elif predictor is not None and predictor.predicts_short_lived(
            chain_of(chain_id), size
        ):  # arena, predicted: bump-allocated in an arena
            site.predicted_objects += objects
            alloc = model.predict + model.arena_bump
            free = model.arena_free
            frag = 0
            late = objects - short
            site.late_free += late
            site.late_free_byte_time += size * (
                long_lifetimes - threshold * late
            )
        else:  # arena, unpredicted: the general first-fit heap
            alloc = model.predict + model.ff_alloc_base
            free = model.ff_free_base
            frag = _firstfit_padding(size)
            site.missed_short += short
            site.missed_short_bytes += short * size
        site.alloc_instr += alloc * objects
        site.free_instr += free * objects
        site.frag_bytes += frag * objects
        site.frag_byte_time += frag * lifetimes
    return sites


@dataclass
class AttributionProfile:
    """One execution's finished attribution, keyed by call chain."""

    program: str
    dataset: str
    profile: str
    threshold: int
    sites: Dict[CallChain, SiteAttribution] = field(default_factory=dict)

    def totals(self) -> SiteAttribution:
        """Every site's record folded into one whole-run total."""
        total = SiteAttribution()
        for site in self.sites.values():
            total.merge(site)
        return total

    def top_sites(
        self, top: int = 10
    ) -> List[Tuple[CallChain, SiteAttribution]]:
        """The ``top`` sites by attributed instructions (ties: more
        bytes, then chain order, so the ranking is deterministic)."""
        ranked = sorted(
            self.sites.items(),
            key=lambda cs: (-cs[1].total_instr, -cs[1].bytes, cs[0]),
        )
        return ranked[:top]

    def to_dict(self) -> Dict[str, Any]:
        """The deterministic attribution document (sites sorted by chain)."""
        return {
            "kind": "attribution",
            "schema_version": ATTRIB_SCHEMA_VERSION,
            "program": self.program,
            "dataset": self.dataset,
            "profile": self.profile,
            "threshold": self.threshold,
            "cost_model_excludes": [
                "history-dependent op counts (scans, refills, splits, "
                "coalesces, resets)",
                "overflow mispredictions (need replayed arena occupancy)",
            ],
            "totals": self.totals().to_dict(),
            "sites": [
                {"chain": list(chain), **self.sites[chain].to_dict()}
                for chain in sorted(self.sites)
            ],
        }

    def collapsed_stacks(self, weight: str = "total_instr") -> str:
        """The sites as folded stacks: ``caller;...;callee <weight>``.

        One line per chain, semicolon-joined outermost-first, weighted by
        the chosen metric — the format ``flamegraph.pl`` and speedscope
        consume.  Zero-weight chains are dropped, lines sort by chain.
        """
        if weight not in _METRIC_FIELDS:
            raise ValueError(
                f"unknown attribution weight {weight!r} "
                f"(have {', '.join(_METRIC_FIELDS)})"
            )
        lines = []
        for chain in sorted(self.sites):
            value = getattr(self.sites[chain], weight)
            if value:
                lines.append(f"{';'.join(chain)} {value}")
        return "\n".join(lines)

    def summary_dict(self, top: int = 10) -> Dict[str, Any]:
        """A compact top-K form for embedding in bench sessions."""
        return {
            "profile": self.profile,
            "threshold": self.threshold,
            "site_count": len(self.sites),
            "totals": self.totals().to_dict(),
            "top_sites": [
                {
                    "chain": list(chain),
                    "total_instr": site.total_instr,
                    "bytes": site.bytes,
                    "frag_byte_time": site.frag_byte_time,
                    "mispredictions": site.mispredictions,
                }
                for chain, site in self.top_sites(top)
            ],
        }


def profile_for_spec(spec) -> str:
    """The attribution profile an :class:`~repro.alloc.AllocatorSpec`
    prices under (the arena kinds share the arena profile)."""
    return "arena" if spec.kind in ("arena", "multiarena") else spec.kind


def attribute_sites(
    trace,
    profile: str = "arena",
    predictor: Optional[LifetimePredictor] = None,
    threshold: Optional[int] = None,
    model: CostModel = DEFAULT_COST_MODEL,
    spec=None,
) -> AttributionProfile:
    """Attribute one execution's costs per call chain.

    ``trace`` is anything :func:`~repro.runtime.stream.protocol.
    as_event_source` accepts.  The costs are priced from the trace's
    lifetime census (:func:`~repro.runtime.shard.engine.lifetime_census`,
    one pass per trace and threshold, sharded over the chunk index when
    the source advertises ``shard_jobs > 1``), so materialized, streamed,
    and ``--jobs N`` inputs produce the same profile field for field.

    With ``spec`` (an :class:`~repro.alloc.AllocatorSpec`) the profile
    and threshold come from the spec — the declarative path the search
    service and spec-driven CLI commands use; explicit ``threshold``
    still wins when both are given.
    """
    if spec is not None:
        profile = profile_for_spec(spec)
        if threshold is None:
            threshold = spec.threshold
    if profile not in ATTRIB_PROFILES:
        raise ValueError(
            f"unknown attribution profile {profile!r} "
            f"(have {', '.join(ATTRIB_PROFILES)})"
        )
    if threshold is None:
        threshold = getattr(predictor, "threshold", DEFAULT_THRESHOLD)
    # Imported lazily, mirroring repro.core.predictor: the shard engine
    # imports repro.obs.spans, so a top-level import would tie the two
    # packages' initialization orders together.
    from repro.obs.spans import TRACER
    from repro.runtime.shard.engine import lifetime_census
    from repro.runtime.stream.protocol import as_event_source

    source = as_event_source(trace)
    header = source.header
    with TRACER.span("attrib.fold", cat="obs", program=header.program,
                     dataset=header.dataset, profile=profile):
        sites = price_census(
            lifetime_census(source, threshold), header.chains, profile,
            predictor=predictor, model=model,
        )
    return AttributionProfile(
        program=header.program,
        dataset=header.dataset,
        profile=profile,
        threshold=threshold,
        sites={
            header.chains.chain(chain_id): site
            for chain_id, site in sites.items()
        },
    )


# ----------------------------------------------------------------------
# Rendering and deterministic exports
# ----------------------------------------------------------------------


def _chain_label(chain: CallChain, depth: int = 4) -> str:
    tail = chain[-depth:]
    label = ">".join(tail)
    return ("…" + label) if len(chain) > depth else label


def render_attrib(profile: AttributionProfile, top: int = 10) -> str:
    """The attribution as a terminal table: totals, then the top sites."""
    totals = profile.totals()
    lines = [
        f"site attribution: {profile.program}/{profile.dataset}"
        f" · {profile.profile} profile"
        f" · threshold {profile.threshold} bytes",
        f"  {totals.objects:,} objects · {totals.bytes:,} bytes"
        f" · {len(profile.sites):,} sites"
        f" · {totals.total_instr:,} instructions"
        f" · {totals.frag_bytes:,} frag bytes",
        f"  mispredictions: late-free {totals.late_free:,}"
        f" · missed-short {totals.missed_short:,}"
        " (overflow needs a replay; see stats)",
    ]
    ranked = profile.top_sites(top)
    if ranked:
        lines.append(f"  top {len(ranked)} sites by attributed instructions:")
        lines.append(
            "    instr        bytes        frag·time     late  missed  site"
        )
        for chain, site in ranked:
            lines.append(
                f"    {site.total_instr:>11,}  {site.bytes:>11,}"
                f"  {site.frag_byte_time:>12,}  {site.late_free:>4,}"
                f"  {site.missed_short:>6,}  {_chain_label(chain)}"
            )
    else:
        lines.append("  no sites attributed (empty trace?)")
    return "\n".join(lines)


def write_attrib_json(
    profile: AttributionProfile, path: Union[str, Path]
) -> Path:
    """Write the attribution document as deterministic JSON."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(profile.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def write_attrib_csv(
    profile: AttributionProfile, path: Union[str, Path]
) -> Path:
    """Write one CSV row per site, sorted by chain, fixed column order.

    The chain cell is the frames ``;``-joined; frames containing the
    field separator, quotes, or newlines are quoted by the :mod:`csv`
    module (RFC 4180), so adversarial chain names round-trip through any
    conforming reader instead of shearing the row.
    """
    import csv

    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("chain",) + _METRIC_FIELDS)
        for chain in sorted(profile.sites):
            metrics = profile.sites[chain].to_dict()
            writer.writerow(
                [";".join(chain)]
                + [str(metrics[name]) for name in _METRIC_FIELDS]
            )
    return path


def write_attrib_collapsed(
    profile: AttributionProfile,
    path: Union[str, Path],
    weight: str = "total_instr",
) -> Path:
    """Write the collapsed-stack (flamegraph.pl) view of the sites."""
    path = Path(path)
    text = profile.collapsed_stacks(weight)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
        if text:
            handle.write("\n")
    return path


def export_attribution(
    profile: AttributionProfile,
    out_dir: Union[str, Path],
    basename: Optional[str] = None,
    weight: str = "total_instr",
) -> Dict[str, Path]:
    """Write the JSON/CSV/collapsed artifacts under ``out_dir``.

    Returns ``{"json": ..., "csv": ..., "collapsed": ...}`` paths; the
    basename defaults to ``<program>-<dataset>-<profile>`` flattened the
    same way the telemetry exporter flattens its artifact names.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if basename is None:
        raw = f"{profile.program}-{profile.dataset}-{profile.profile}"
        basename = "".join(
            ch if ch.isalnum() or ch in "-._" else "_" for ch in raw
        )
    return {
        "json": write_attrib_json(
            profile, out_dir / f"{basename}.attrib.json"
        ),
        "csv": write_attrib_csv(profile, out_dir / f"{basename}.attrib.csv"),
        "collapsed": write_attrib_collapsed(
            profile, out_dir / f"{basename}.collapsed", weight=weight
        ),
    }
