"""Windows HPC bare-metal deployment.

Models the HPC Pack deployment service on the Windows head node: the
InstallShare configuration tree (whose clear-text ``diskpart.txt`` the
paper patches, Figures 9–10 and 15) and the deploy / reimage flows whose
collateral damage separates v1 from v2.
"""

from repro.windeploy.installshare import DISKPART_PATH, InstallShare
from repro.windeploy.deploytool import WindowsDeployTool, WindowsDeployReport

__all__ = [
    "DISKPART_PATH",
    "InstallShare",
    "WindowsDeployReport",
    "WindowsDeployTool",
]
