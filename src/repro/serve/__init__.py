"""Always-on incremental analysis service (``repro serve``).

The batch pipeline answers "what does this trace say?" once; this
package keeps answering it *while the trace grows*.  A daemon

* **tails** the proxy and MME logs in any wire format — plain CSV by
  byte offset, ``.csv.gz`` by whole-gzip-member appends, ``.bin`` by
  complete-block boundaries (:mod:`repro.serve.tailer`);
* **aggregates incrementally**: new rows are scrubbed (in lenient mode,
  by the batch scrubber :class:`~repro.core.dataset.LenientScrub`,
  chunked with its carry), routed to
  account shards, and folded into the same ``*Partial`` dataclasses the
  map-reduce analysis uses (:mod:`repro.serve.state`);
* **checkpoints** stream offsets, shard partials and quarantine
  accounting to versioned on-disk snapshots and crash-recovers from the
  newest valid one (:mod:`repro.serve.checkpoint`);
* **serves** finalized figure panels, the full report, the quarantine
  report and the observability run report over a minimal stdlib HTTP
  JSON API with generation-keyed caching and ETags
  (:mod:`repro.serve.http`).

The differential contract: at any poll boundary, the service's
finalized report equals ``analyze_parallel`` run on the same prefix of
the trace with the same ``shards``/``lenient``/``seed`` settings — for
both wire formats, and after a kill-and-restore mid-stream.
"""

from repro.serve.checkpoint import CHECKPOINT_SCHEMA, CheckpointStore
from repro.serve.service import AnalysisService, ServeConfig
from repro.serve.tailer import StreamTailer

__all__ = [
    "CHECKPOINT_SCHEMA",
    "AnalysisService",
    "CheckpointStore",
    "ServeConfig",
    "StreamTailer",
]
