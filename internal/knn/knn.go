// Package knn is kept only for the name benchmarks/layers.go imports; the
// neighbour type, top-k selection and brute-force scan live in kernel.  Its
// tests pin the kernel code that replaced knn.Select and knn.Subset.
package knn

import "musuite/internal/kernel"

// Neighbor is kernel.Neighbor.
type Neighbor = kernel.Neighbor
