module splitft/benchmark

go 1.22

require splitft v0.0.0

replace splitft => ../
