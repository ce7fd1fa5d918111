module megate/benchmark

go 1.22

require megate v0.0.0

replace megate => ../
