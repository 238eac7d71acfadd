package dist

import "repro/internal/obs"

// Fleet metrics (obs registry). The frame and byte counters are indexed
// by Proto so the per-frame cost on the codec hot path is two atomic
// adds with no label formatting; both sides of the wire update the same
// series names, so a coordinator process reports its traffic and a
// worker process (via -debug-addr) reports its own.
var (
	mFramesTx = [2]*obs.Counter{
		ProtoJSON: obs.Default().Counter(`dist_frames_total{codec="json",dir="tx"}`,
			"wire frames per codec per direction (tx = written, rx = read)"),
		ProtoBinary: obs.Default().Counter(`dist_frames_total{codec="binary",dir="tx"}`),
	}
	mFramesRx = [2]*obs.Counter{
		ProtoJSON:   obs.Default().Counter(`dist_frames_total{codec="json",dir="rx"}`),
		ProtoBinary: obs.Default().Counter(`dist_frames_total{codec="binary",dir="rx"}`),
	}
	mBytesTx = [2]*obs.Counter{
		ProtoJSON: obs.Default().Counter(`dist_bytes_total{codec="json",dir="tx"}`,
			"wire bytes (length prefix included) per codec per direction"),
		ProtoBinary: obs.Default().Counter(`dist_bytes_total{codec="binary",dir="tx"}`),
	}
	mBytesRx = [2]*obs.Counter{
		ProtoJSON:   obs.Default().Counter(`dist_bytes_total{codec="json",dir="rx"}`),
		ProtoBinary: obs.Default().Counter(`dist_bytes_total{codec="binary",dir="rx"}`),
	}

	// Coordinator-side fleet health.
	mRTT = obs.Default().Histogram("dist_dispatch_rtt_seconds", nil,
		"dispatch-to-result round trip per task, including worker queue and execution time")
	mHeartbeatGap = obs.Default().Histogram("dist_heartbeat_gap_seconds", nil,
		"silence between consecutive frames from a worker (heartbeat cadence)")
	mTasksCompleted = obs.Default().Counter("dist_tasks_completed_total",
		"fleet tasks completed with a result applied")
	mRedispatch = obs.Default().Counter("dist_redispatch_total",
		"outstanding tasks re-dispatched after a worker death")
	mWorkerDeaths = obs.Default().Counter("dist_worker_deaths_total",
		"workers declared dead (disconnect, heartbeat timeout, send failure)")
	mWorkersGauge = obs.Default().Gauge("dist_workers",
		"workers currently registered")
	mQueueDepth = obs.Default().Gauge("dist_queue_depth",
		"tasks waiting for fleet capacity (including not-yet-compacted abandoned entries)")

	// Worker-agent side.
	mWorkerSessions = obs.Default().Counter("dist_worker_sessions_total",
		"coordinator sessions a worker agent completed the handshake for")
	mWorkerTasks = obs.Default().Counter("dist_worker_tasks_total",
		"tasks executed by this worker agent")
	mWorkerReseeds = obs.Default().Counter("dist_worker_stream_reseeds_total",
		"cached noise streams restarted from their seed because a task asked for a draw behind the cached position (re-dispatch, out-of-order)")
)

// countFrameTx records one written frame of total bytes n (prefix
// included) under codec p.
func countFrameTx(p Proto, n int) {
	if p.valid() {
		mFramesTx[p].Inc()
		mBytesTx[p].Add(int64(n))
	}
}

// countFrameRx records one read frame of total bytes n (prefix included)
// under codec p.
func countFrameRx(p Proto, n int) {
	if p.valid() {
		mFramesRx[p].Inc()
		mBytesRx[p].Add(int64(n))
	}
}
