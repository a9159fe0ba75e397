"""Online partitioning-advisor service (``python -m repro.service``).

Serves the paper's optimal bandwidth-partitioning schemes over
HTTP/JSON at high request rates by micro-batching concurrent solves
into vectorized :mod:`repro.core.batch` kernels.  See
``docs/SERVICE.md`` for the protocol and tuning guide.
"""

from repro.service.batching import MicroBatcher
from repro.service.cache import ResultCache
from repro.service.client import AsyncServiceClient, ServiceClient, ServiceError
from repro.service.config import ServiceConfig
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    PartitionRequest,
    QoSRequest,
    StreamOpenRequest,
    parse_partition_request,
    parse_qos_request,
    parse_stream_open,
)
from repro.service.server import PartitionService
from repro.service.sessions import SessionLimitError, SessionManager, StreamSession
from repro.service.shedding import AdmissionController, Deadline, DeadlineExceeded
from repro.service.supervisor import Supervisor
from repro.service.surrogate import SurrogateStore
from repro.service.watch import ServiceWatch

__all__ = [
    "AdmissionController",
    "AsyncServiceClient",
    "Deadline",
    "DeadlineExceeded",
    "MicroBatcher",
    "PartitionRequest",
    "PartitionService",
    "QoSRequest",
    "ResultCache",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceMetrics",
    "ServiceWatch",
    "SessionLimitError",
    "SessionManager",
    "StreamOpenRequest",
    "StreamSession",
    "Supervisor",
    "SurrogateStore",
    "parse_partition_request",
    "parse_qos_request",
    "parse_stream_open",
]
