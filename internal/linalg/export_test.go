package linalg

// JacobiEigen exposes the test-only Jacobi oracle to the external
// level-identity test, which also imports svdstat.
var JacobiEigen = jacobiEigen
