"""JSON (de)serialisation of topologies, paths and campaigns.

A real deployment measures with one toolchain and infers with another;
this module is the seam: a topology + path set + snapshot series can be
written to a single JSON document and loaded back into the exact objects
LIA consumes, so external measurement data (or archived campaigns) drive
the library without touching the simulators.

Format (documented, versioned)::

    {
      "format": "repro-campaign/1",
      "network": {"nodes": N, "links": [[tail, head], ...]},
      "beacons": [...], "destinations": [...],
      "paths": [{"source": s, "dest": d, "links": [link_index, ...]}, ...],
      "snapshots": [
         {"num_probes": S, "path_transmission": [...]},
         ...
      ]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path as FilePath
from typing import Dict, List, Sequence, Union

import numpy as np

from repro.probing.snapshot import MeasurementCampaign, Snapshot
from repro.topology.graph import Network, Path
from repro.topology.routing import RoutingMatrix
from repro.utils import check_count

FORMAT_TAG = "repro-campaign/1"


@dataclass
class CampaignDocument:
    """Everything needed to run LIA, bundled for storage."""

    network: Network
    beacons: List[int]
    destinations: List[int]
    paths: List[Path]
    snapshots: List[Snapshot]

    def routing(self) -> RoutingMatrix:
        return RoutingMatrix.from_paths(self.paths)

    def campaign(self) -> MeasurementCampaign:
        return MeasurementCampaign(
            routing=self.routing(), snapshots=list(self.snapshots)
        )


def network_to_dict(network: Network) -> Dict:
    return {
        "nodes": network.num_nodes,
        "links": [[link.tail, link.head] for link in network.links],
    }


def network_from_dict(payload: Dict) -> Network:
    network = Network()
    for node in range(int(payload["nodes"])):
        network.add_node(node)
    for tail, head in payload["links"]:
        network.add_link(int(tail), int(head))
    return network


def paths_to_list(paths: Sequence[Path]) -> List[Dict]:
    return [
        {
            "source": p.source,
            "dest": p.dest,
            "links": list(p.link_indices()),
        }
        for p in paths
    ]


def paths_from_list(payload: Sequence[Dict], network: Network) -> List[Path]:
    paths: List[Path] = []
    for index, entry in enumerate(payload):
        links = []
        for i in entry["links"]:
            check_count(f"path {index} link index", i)
            if not 0 <= i < network.num_links:
                raise ValueError(
                    f"path {index} names link {i}, but the network has "
                    f"links 0..{network.num_links - 1}"
                )
            links.append(network.link(int(i)))
        paths.append(
            Path(
                index=index,
                source=int(entry["source"]),
                dest=int(entry["dest"]),
                links=tuple(links),
            )
        )
    return paths


def document_to_dict(document: CampaignDocument) -> Dict:
    return {
        "format": FORMAT_TAG,
        "network": network_to_dict(document.network),
        "beacons": list(document.beacons),
        "destinations": list(document.destinations),
        "paths": paths_to_list(document.paths),
        "snapshots": [
            {
                "num_probes": snap.num_probes,
                "path_transmission": snap.path_transmission.tolist(),
            }
            for snap in document.snapshots
        ],
    }


def document_from_dict(payload: Dict) -> CampaignDocument:
    tag = payload.get("format")
    if tag != FORMAT_TAG:
        raise ValueError(f"unsupported document format {tag!r}")
    network = network_from_dict(payload["network"])
    paths = paths_from_list(payload["paths"], network)
    snapshots = [
        Snapshot(
            path_transmission=np.asarray(
                entry["path_transmission"], dtype=np.float64
            ),
            num_probes=entry["num_probes"],
        )
        for entry in payload["snapshots"]
    ]
    for snap in snapshots:
        if snap.num_paths != len(paths):
            raise ValueError("snapshot width does not match path count")
    return CampaignDocument(
        network=network,
        beacons=[int(b) for b in payload["beacons"]],
        destinations=[int(d) for d in payload["destinations"]],
        paths=paths,
        snapshots=snapshots,
    )


def save_campaign(
    document: CampaignDocument, path: Union[str, FilePath]
) -> None:
    """Write a campaign document as JSON."""
    with open(path, "w") as handle:
        json.dump(document_to_dict(document), handle)


def load_campaign(path: Union[str, FilePath]) -> CampaignDocument:
    """Read a campaign document written by :func:`save_campaign`."""
    with open(path) as handle:
        payload = json.load(handle)
    return document_from_dict(payload)
