//go:build musuite_debug

package rpc

// LoudPools reports a musuite_debug build, whose pools of Requests (here)
// and request contexts (core) are loud: returning an object marks it dead
// instead of pooling it, every method of a dead object panics, and
// RequestsInUse / core.ContextsInUse count the objects not yet returned.
// Nothing is reused, so allocation counts are not the default build's.  A
// read buffer is still reused, but the bytes read into it are poisoned when
// it goes back on the free list (ReadBufsInUse counts in every build).
const LoudPools = true
