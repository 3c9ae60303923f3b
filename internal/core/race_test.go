//go:build race

package core

// raceBuild reports a -race build. Its sync.Pool drops a quarter of what it
// is handed, so pooled scratch (the samplers' uniform batches, the mask
// kernel's blocks) is refilled that often and the allocation budgets carry
// a race row.
const raceBuild = true
