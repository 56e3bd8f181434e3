"""Line-oriented run reports: key=value header plus a machine-readable block.

Floats are rendered with ``repr``, whose shortest round-trip form parses back
to the identical double, so reports carry full precision and byte-compare
cleanly across runs.
"""

from __future__ import annotations

import numpy as np

RECORD_SEPARATOR = "==records=="


def format_value(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def render_report(header: list[tuple[str, object]], records: list[list[tuple[str, object]]]) -> str:
    lines = [f"{key}={format_value(value)}" for key, value in header]
    lines.append(RECORD_SEPARATOR)
    for record in records:
        lines.append(" ".join(f"{key}={format_value(value)}" for key, value in record))
    return "\n".join(lines) + "\n"
