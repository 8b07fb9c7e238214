"""Measurement-plane substrates: addressing, AS mapping, traceroute.

The :mod:`repro.netsim.sim` subpackage adds the data plane: a
discrete-event packet-level simulator whose congestion-induced drops
feed the tomography pipeline through
:class:`repro.lossmodel.CongestionLossProcess`.
"""

from repro.netsim.addressing import (
    HostAllocator,
    LongestPrefixTrie,
    Prefix,
    PrefixAllocator,
    format_ipv4,
    parse_ipv4,
)
from repro.netsim.aliases import (
    AliasResolution,
    MeasuredTopology,
    build_measured_topology,
    measure_topology,
    resolve_aliases,
)
from repro.netsim.asmap import (
    AddressPlan,
    AsLocationBreakdown,
    AsMapper,
    build_address_plan,
    classify_congested_columns,
)
from repro.netsim.sim import (
    TRAFFIC_KINDS,
    CongestionSimulator,
    SnapshotTrace,
)
from repro.netsim.traceroute import (
    Hop,
    TracerouteConfig,
    TracerouteRecord,
    TracerouteSimulator,
)

__all__ = [
    "AddressPlan",
    "AliasResolution",
    "AsLocationBreakdown",
    "AsMapper",
    "CongestionSimulator",
    "Hop",
    "HostAllocator",
    "LongestPrefixTrie",
    "MeasuredTopology",
    "Prefix",
    "PrefixAllocator",
    "SnapshotTrace",
    "TRAFFIC_KINDS",
    "TracerouteConfig",
    "TracerouteRecord",
    "TracerouteSimulator",
    "build_address_plan",
    "build_measured_topology",
    "classify_congested_columns",
    "format_ipv4",
    "measure_topology",
    "parse_ipv4",
    "resolve_aliases",
]
