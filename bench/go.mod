// The benchmark is a module of its own, so that it builds with its own
// build file and the repository's go.mod, `go build ./...` and
// `go test ./...` do not know it is there. It has no dependencies but the
// repository itself, which it takes from the directory above.
module seccloud/bench

go 1.22

require seccloud v0.0.0

replace seccloud => ../
