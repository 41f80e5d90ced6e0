module github.com/chillerdb/chiller/benchmark

go 1.24

require github.com/chillerdb/chiller v0.0.0

replace github.com/chillerdb/chiller => ../
