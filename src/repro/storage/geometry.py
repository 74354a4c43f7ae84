"""Disk-size units and helpers.

The canonical unit is the megabyte (``float``), as used by the paper's
``ide.disk`` and ``diskpart.txt`` listings.
"""

from __future__ import annotations

MB: float = 1.0
GB: float = 1000.0  # disk-vendor decimal gigabytes, as in "250GB hard disk"

#: The Eridani compute nodes have 250 GB disks (§III.C.2 of the paper).
TOTAL_DISK_MB_250GB: float = 250 * GB

#: Windows reservation used in the modified diskpart.txt (Figure 10).
WINDOWS_PARTITION_MB: float = 150_000.0
