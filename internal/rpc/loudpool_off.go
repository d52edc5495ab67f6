//go:build !musuite_debug

package rpc

// LoudPools reports a musuite_debug build; see loudpool_on.go.  Off, every
// use-after-return check compiles away.
const LoudPools = false
