"""SeGShare itself: the paper's primary contribution.

The pieces map one-to-one onto Fig. 1 of the paper:

* :mod:`repro.core.model` / :mod:`repro.core.acl` — the access-control
  relations of Table I and their encrypted file formats,
* :mod:`repro.core.access_control` — the access control component
  (Table IV's internal operations),
* :mod:`repro.core.file_manager` — trusted and untrusted file managers,
* :mod:`repro.core.request_handler` — Algo. 1 and the remaining requests,
* :mod:`repro.core.enclave_app` — the SeGShare enclave,
* :mod:`repro.core.server` — the untrusted server host,
* :mod:`repro.core.client` — the user application,
* extensions: :mod:`repro.core.dedup`, :mod:`repro.core.hiding`,
  :mod:`repro.core.rollback`, :mod:`repro.core.backup` (paper
  Section V); replication (V-F) is the cluster's join,
  :mod:`repro.cluster.membership`.

Use :func:`repro.core.server.deploy` to stand up a complete system and
:class:`repro.core.client.SeGShareClient` to talk to it; see
``examples/quickstart.py``.
"""

from repro.core.client import SeGShareClient
from repro.core.model import Permission
from repro.core.server import Deployment, SeGShareServer, deploy

__all__ = [
    "Deployment",
    "Permission",
    "SeGShareClient",
    "SeGShareServer",
    "deploy",
]
