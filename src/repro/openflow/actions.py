"""OpenFlow actions: output and set-field (the rewrite primitive).

An action list is **compiled** once into an :class:`ActionProgram`: the
set-fields between two outputs collapse into one row of header writes, which
materializes as a single flat
:meth:`~repro.netsim.packet.EthernetFrame.rewrite_headers` call at that
output (apply-actions semantics: an output emits the frame as rewritten *so
far*). Set-field produces copies; frames are never mutated in place. A flow
entry compiles its list at construction and the program dies with the entry;
the switch walks a program's steps itself
(:meth:`~repro.openflow.switch.OpenFlowSwitch._execute`) and compiles a
PacketOut's list where it executes it.

``apply_actions_multi`` and ``apply_actions`` run a list or program off the
switch, returning the ``(frame, port)`` pair of every output; they rest on
the same rewrite. The tests hold an uncompiled interpreter, one
``dataclasses.replace`` chain per field, as the differential-testing oracle
(``tests/openflow/reference.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union, final

from repro.netsim.addresses import MAC, IPv4
from repro.netsim.packet import EthernetFrame
from repro.openflow.constants import REWRITABLE_FIELDS


class Action:
    """Marker base class."""

    __slots__ = ()


class OutputAction(Action):
    """Emit the frame (as rewritten so far) out of ``port`` — may be a real
    port number or one of the reserved OFPP_* ports."""

    __slots__ = ("port",)

    def __init__(self, port: int) -> None:
        self.port = port

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OutputAction) and self.port == other.port

    def __hash__(self) -> int:
        return hash(("out", self.port))

    def __repr__(self) -> str:
        return f"Output({self.port:#x})" if self.port > 0xFF else f"Output({self.port})"


#: rewritable field -> (type its value is coerced to, slot in a ``_Writes`` row)
_REWRITE: Dict[str, Tuple[type, int]] = {
    "eth_src": (MAC, 0), "eth_dst": (MAC, 1),
    "ipv4_src": (IPv4, 2), "ipv4_dst": (IPv4, 3),
    "tcp_src": (int, 4), "tcp_dst": (int, 5),
    "udp_src": (int, 6), "udp_dst": (int, 7),
}
assert _REWRITE.keys() == REWRITABLE_FIELDS


class SetFieldAction(Action):
    """Rewrite one header field (``eth_src/dst``, ``ipv4_src/dst``,
    ``tcp_src/dst``, ``udp_src/dst``)."""

    __slots__ = ("field", "value")

    def __init__(self, field: str, value: Any) -> None:
        if field not in _REWRITE:
            raise ValueError(f"field {field!r} is not rewritable")
        kind = _REWRITE[field][0]
        if type(value) is not kind:
            value = kind(value)
        self.field = field
        self.value = value

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SetFieldAction)
                and self.field == other.field and self.value == other.value)

    def __hash__(self) -> int:
        return hash(("set", self.field, self.value))

    def __repr__(self) -> str:
        return f"SetField({self.field}={self.value})"


#: header writes pending at one output, eight slots filled by the field's
#: index in ``_REWRITE``, ``None`` = leave the field as is:
#: ``(eth_src, eth_dst, ipv4_src, ipv4_dst, tcp_src, tcp_dst, udp_src, udp_dst)``
_Writes = Tuple[Any, ...]


@final
class ActionProgram:
    """An action list compiled for execution: one step per output.

    ``steps`` holds, per :class:`OutputAction` in list order, the header
    writes accumulated since the previous output (``None`` when there are
    none) and the port. ``trailing`` is what was written after the last
    output — it reaches no output, and only :func:`apply_actions` on a list
    *without* outputs returns a frame carrying it.
    """

    __slots__ = ("steps", "trailing")

    def __init__(self, actions: Sequence[Action]) -> None:
        steps: List[Tuple[Optional[_Writes], int]] = []
        row: Optional[List[Any]] = None  # None until a set-field since the last output
        for action in actions:
            if type(action) is SetFieldAction:
                if row is None:
                    row = [None] * 8
                row[_REWRITE[action.field][1]] = action.value
            elif type(action) is OutputAction:
                steps.append((None if row is None else tuple(row), action.port))
                row = None
            else:  # pragma: no cover - future action types
                raise TypeError(f"unsupported action {action!r}")
        self.steps = tuple(steps)
        self.trailing = None if row is None else tuple(row)


def apply_actions_multi(
    frame: EthernetFrame, actions: Union[ActionProgram, Sequence[Action]]
) -> List[Tuple[EthernetFrame, int]]:
    """Run an action list (or its compiled program); return the exact
    ``(frame, port)`` pairs, preserving per-output rewrite state.

    OpenFlow apply-actions semantics: actions execute in order, so a
    set-field *after* an output does not affect that output.
    """
    program = actions if type(actions) is ActionProgram else ActionProgram(actions)
    outputs: List[Tuple[EthernetFrame, int]] = []
    current = frame
    for writes, port in program.steps:
        if writes is not None:
            current = current.rewrite_headers(writes)
        outputs.append((current, port))
    return outputs


def apply_actions(
    frame: EthernetFrame, actions: Sequence[Action]
) -> Tuple[EthernetFrame, List[int]]:
    """Run an action list; return the final frame and output port list.

    The frame is the one the *last* output emitted (set-fields after it
    never reached an output and are discarded); a list with no output
    returns the frame with every rewrite applied.
    """
    program = ActionProgram(actions)
    outputs = apply_actions_multi(frame, program)
    if outputs:
        return outputs[-1][0], [port for _, port in outputs]
    if program.trailing is not None:
        frame = frame.rewrite_headers(program.trailing)
    return frame, []
