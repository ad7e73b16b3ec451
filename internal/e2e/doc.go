// Package e2e is the black-box serving acceptance harness: it builds
// the real unidetectd binary, boots a small fleet of daemons on
// ephemeral ports behind a consistent-hash router, and drives seeded
// multi-tenant load — sync detects, async jobs, a mid-run /v1/reload
// and kill-one-daemon chaos — asserting zero cross-tenant leakage,
// exact quota accounting against the /metrics exposition, and that a
// killed-and-restarted daemon reruns async jobs to byte-identical
// findings. Everything lives in the test files; the package itself
// exports nothing.
package e2e
