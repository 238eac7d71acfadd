package jobstore

import "repro/internal/obs"

// Store metrics (obs registry). Only the WAL counts: its fsyncs are the
// durability cost a job pays, and its appends are the writes an fsync
// makes durable.
var (
	mFsyncs = obs.Default().Counter("jobstore_fsyncs_total",
		"fsyncs the WAL store issued: Sync group commits, compactions, Open and Close")
	mLazyWrites = obs.Default().Counter("jobstore_lazy_writes_total",
		"WAL records appended (PutLazy, Delete, and the append half of Put); the next Sync, compaction or Close makes them durable")
)
