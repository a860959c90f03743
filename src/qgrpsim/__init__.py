"""Packet-level simulator and protocol library for QGRP.

QGRP is a QoS/energy-aware geographic routing protocol for multimedia
wireless sensor networks.  The package bundles its analytical 802.11 DCF
collision/bandwidth model, the protocol state machine, a simplified AODV
baseline, a deterministic discrete-event engine, and the experiment
tooling that compares the two protocols over seeded topologies.
"""

__version__ = "0.1.0"
