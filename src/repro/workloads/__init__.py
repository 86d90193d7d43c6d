"""Workloads: timed clients (timecurl) and the bigFlows-style trace."""

from repro.workloads.clients import RequestTiming, TimedHTTPClient
from repro.workloads.loadgen import ClosedLoopGenerator, LoadResult
from repro.workloads.trace import (
    ConversationTrace,
    TraceRequest,
    bigflows_like_trace,
    synthesize_bigflows_trace,
)

__all__ = [
    "RequestTiming",
    "TimedHTTPClient",
    "LoadResult",
    "ClosedLoopGenerator",
    "TraceRequest",
    "ConversationTrace",
    "synthesize_bigflows_trace",
    "bigflows_like_trace",
]
