//go:build !go1.23

package kernel

// The task coroutines (task.go) are built on iter.Pull, which needs Go 1.23
// or newer. Under an older toolchain this undefined type is the first error
// the compiler prints: type declarations are checked first, and this file's
// name sorts before every other file of the package.
type _ kernel_requires_go1_23
