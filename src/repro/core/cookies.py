"""Flow-cookie encoding for controller warm-restart reconciliation.

Every FlowMod the controller installs carries a nonzero cookie encoding
*(controller epoch, flow kind, plan id)*:

* **epoch** — the controller's incarnation counter, bumped on every warm
  restart. A resyncing controller can tell its own freshly-installed flows
  (current epoch) from survivors of a previous incarnation (older epoch)
  without any other state.
* **kind** — what the flow is for: a service redirection pair, a plain L3
  route, or the table-miss entry. Reconciliation treats them differently
  (service flows are adopted or GC'd against live instances; route and
  miss entries age out or get replaced on their own).
* **plan id** — a per-epoch sequence number; all flows of one redirection
  install (both directions, every hop) share it, so the cookie identifies
  the *install*: it is what load bookkeeping counts, and what teardown
  (``TransparentEdgeController.withdraw``) deletes by — one cookie-filtered
  ``OFPFC_DELETE`` removes the whole redirection.

The layout leaves the low 28 bits for the plan id (~268M installs per
epoch), 4 bits for the kind, and the rest for the epoch — cookies are
plain Python ints, so the epoch never wraps.
"""

from __future__ import annotations

EPOCH_SHIFT = 32
KIND_SHIFT = 28
KIND_MASK = 0xF
PLAN_MASK = (1 << KIND_SHIFT) - 1

#: flow kinds
KIND_SERVICE = 1  # redirection installed by _install_and_release; withdrawn by cookie
KIND_ROUTE = 2  # plain L3 route flow
KIND_MISS = 3  # the priority-0 table-miss entry


def make_cookie(epoch: int, kind: int, plan_id: int) -> int:
    """Encode *(epoch, kind, plan id)* into one nonzero cookie."""
    if epoch < 1:
        raise ValueError(f"epoch must be >= 1, got {epoch!r}")
    if not 1 <= kind <= KIND_MASK:
        raise ValueError(f"kind must be in [1, {KIND_MASK}], got {kind!r}")
    if not 0 <= plan_id <= PLAN_MASK:
        raise ValueError(f"plan id out of range: {plan_id!r}")
    return (epoch << EPOCH_SHIFT) | (kind << KIND_SHIFT) | plan_id


def cookie_epoch(cookie: int) -> int:
    """The controller incarnation that installed this flow."""
    return cookie >> EPOCH_SHIFT


def cookie_kind(cookie: int) -> int:
    """The flow kind (``KIND_SERVICE`` / ``KIND_ROUTE`` / ``KIND_MISS``)."""
    return (cookie >> KIND_SHIFT) & KIND_MASK


def cookie_plan(cookie: int) -> int:
    """The per-epoch install sequence number."""
    return cookie & PLAN_MASK


def is_controller_cookie(cookie: int) -> bool:
    """True for cookies this controller family stamped (nonzero, known
    kind). Zero-cookie flows were installed by something else."""
    return cookie != 0 and cookie_kind(cookie) in (KIND_SERVICE, KIND_ROUTE, KIND_MISS)
