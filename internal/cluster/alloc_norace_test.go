//go:build !race

package cluster

// idleTickAllocBudget is what TestIdleTickEpochAllocFree lets one idle
// cluster tick allocate: nothing, bar the occasional refill after a GC
// cleared the engines' reply-channel pools.
const idleTickAllocBudget = 0.05
