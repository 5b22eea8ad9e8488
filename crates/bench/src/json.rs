//! The JSON writer behind [`save_json`](crate::tables::save_json); the
//! crate docs list its rules. A result row implements [`Json`] through
//! [`json_object!`](crate::json_object).

use catdet_metrics::OperatingPoint;
use std::fmt::Write as _;

/// A non-finite float, which JSON cannot hold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonFinite(pub f64);

/// What writing JSON returns: it fails only on a [`NonFinite`] float.
pub type Result<T = ()> = std::result::Result<T, NonFinite>;

/// A value that can be written as pretty JSON.
pub trait Json {
    /// Appends `self` to `out`, nested `depth` levels deep.
    fn write_json(&self, out: &mut String, depth: usize) -> Result;
}

/// Renders `value` as pretty JSON text.
pub fn pretty<T: Json + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.write_json(&mut out, 0)?;
    Ok(out)
}

/// Writes `fields` as an object nested `depth` levels deep: the body of
/// every [`json_object!`](crate::json_object) impl.
pub fn object(out: &mut String, depth: usize, fields: &[(&str, &dyn Json)]) -> Result {
    out.push('{');
    for (i, (name, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, depth + 1);
        string(out, name);
        out.push_str(": ");
        value.write_json(out, depth + 1)?;
    }
    newline(out, depth);
    out.push('}');
    Ok(())
}

/// Implements [`Json`] for a struct as an object of the listed fields, in
/// the order listed: their declaration order, so the files keep theirs.
/// The list must name every field, or the impl does not compile.
#[macro_export]
macro_rules! json_object {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::Json for $ty {
            fn write_json(&self, out: &mut String, depth: usize) -> $crate::json::Result {
                let Self { $($field),+ } = self;
                let fields = [$((stringify!($field), $field as &dyn $crate::json::Json)),+];
                $crate::json::object(out, depth, &fields)
            }
        }
    };
}

json_object! { OperatingPoint { threshold, precision, recall, delay } }

/// Writes `items` as an array nested `depth` levels deep.
fn array<'a>(out: &mut String, depth: usize, items: impl Iterator<Item = &'a dyn Json>) -> Result {
    let mut empty = true;
    for item in items {
        out.push(if empty { '[' } else { ',' });
        empty = false;
        newline(out, depth + 1);
        item.write_json(out, depth + 1)?;
    }
    if empty {
        out.push_str("[]");
    } else {
        newline(out, depth);
        out.push(']');
    }
    Ok(())
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', 2 * depth));
}

fn string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32).expect("a String takes any text"),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Json for f64 {
    fn write_json(&self, out: &mut String, _: usize) -> Result {
        if !self.is_finite() {
            return Err(NonFinite(*self));
        }
        // `Display` never writes an exponent, so a `.` is what marks a float.
        let start = out.len();
        write!(out, "{self}").expect("a String takes any text");
        if !out[start..].contains('.') {
            out.push_str(".0");
        }
        Ok(())
    }
}

impl Json for f32 {
    fn write_json(&self, out: &mut String, depth: usize) -> Result {
        f64::from(*self).write_json(out, depth)
    }
}

impl Json for bool {
    fn write_json(&self, out: &mut String, _: usize) -> Result {
        out.push_str(if *self { "true" } else { "false" });
        Ok(())
    }
}

impl Json for String {
    fn write_json(&self, out: &mut String, _: usize) -> Result {
        string(out, self);
        Ok(())
    }
}

impl<T: Json> Json for Option<T> {
    fn write_json(&self, out: &mut String, depth: usize) -> Result {
        if let Some(v) = self {
            return v.write_json(out, depth);
        }
        out.push_str("null");
        Ok(())
    }
}

impl<T: Json> Json for Vec<T> {
    fn write_json(&self, out: &mut String, depth: usize) -> Result {
        array(out, depth, self.iter().map(|v| v as &dyn Json))
    }
}

impl<T: Json + ?Sized> Json for &T {
    fn write_json(&self, out: &mut String, depth: usize) -> Result {
        (**self).write_json(out, depth)
    }
}

macro_rules! tuple {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Json),+> Json for ($($t,)+) {
            fn write_json(&self, out: &mut String, depth: usize) -> Result {
                array(out, depth, [$(&self.$i as &dyn Json),+].into_iter())
            }
        }
    };
}

tuple!(A 0, B 1);
tuple!(A 0, B 1, C 2);
tuple!(A 0, B 1, C 2, D 3, E 4);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{Fig6Point, Table3Row};

    #[test]
    fn pretty_object_shape() {
        struct Pair {
            a: bool,
            b: f64,
        }
        json_object! { Pair { a, b } }
        let text = pretty(&Pair { a: true, b: 2.5 }).unwrap();
        assert_eq!(text, "{\n  \"a\": true,\n  \"b\": 2.5\n}");
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(pretty(&2.0f64).unwrap(), "2.0");
        assert_eq!(pretty(&-0.0f64).unwrap(), "-0.0");
        assert_eq!(pretty(&1e21f64).unwrap(), "1000000000000000000000.0");
        assert_eq!(pretty(&1.5e-7f64).unwrap(), "0.00000015");
        // An `f32` is widened first, exactly as the files have it.
        assert_eq!(pretty(&0.01f32).unwrap(), "0.009999999776482582");
        assert_eq!(pretty(&3.0f32).unwrap(), "3.0");
    }

    #[test]
    fn nan_is_an_error() {
        assert!(pretty(&f64::NAN).is_err());
        assert_eq!(pretty(&f32::INFINITY), Err(NonFinite(f64::INFINITY)));
        // Anywhere in a value: the whole value fails.
        assert!(pretty(&vec![(1.0f64, Some(f64::NEG_INFINITY))]).is_err());
    }

    #[test]
    fn strings_are_escaped() {
        let s = "a\"b\\c\n\r\t\u{1}\u{1f}é".to_string();
        assert_eq!(
            pretty(&s).unwrap(),
            "\"a\\\"b\\\\c\\n\\r\\t\\u0001\\u001fé\""
        );
    }

    #[test]
    fn containers_nest() {
        assert_eq!(pretty(&None::<f64>).unwrap(), "null");
        assert_eq!(pretty(&Some(false)).unwrap(), "false");
        let v = vec![(1.0f64, (2.5f64, None::<f64>, true))];
        assert_eq!(
            pretty(&v).unwrap(),
            "[\n  [\n    1.0,\n    [\n      2.5,\n      null,\n      true\n    ]\n  ]\n]"
        );
        assert_eq!(
            pretty(&vec![vec![1.0f64]]).unwrap(),
            "[\n  [\n    1.0\n  ]\n]"
        );
    }

    #[test]
    fn empty_vec_is_brackets() {
        assert_eq!(pretty(&Vec::<f64>::new()).unwrap(), "[]");
        assert_eq!(
            pretty(&(Vec::<f64>::new(), 1.0f64)).unwrap(),
            "[\n  [],\n  1.0\n]"
        );
    }

    /// The first rows of `results/table3.json` and `results/fig6.json`
    /// under `CATDET_QUICK=1`, byte for byte as the files have held them.
    #[test]
    fn result_rows_keep_their_text() {
        let table3 = vec![
            Table3Row {
                system: "ResNet-10a+ResNet-50 Cascaded".into(),
                total: 38.45525559963504,
                proposal: 20.732889792,
                refinement: 17.722365807635036,
                from_tracker: None,
                from_proposal: None,
                paper: (43.2, 20.7, 22.5, None, None),
            },
            Table3Row {
                system: "ResNet-10a+ResNet-50 CaTDet".into(),
                total: 44.92996778625128,
                proposal: 20.732889792,
                refinement: 24.197077994251277,
                from_tracker: Some(13.835712753679468),
                from_proposal: Some(17.722365807635036),
                paper: (49.3, 20.7, 28.6, Some(11.9), Some(22.5)),
            },
        ];
        assert_eq!(
            pretty(&table3).unwrap(),
            "[\n  {\n    \"system\": \"ResNet-10a+ResNet-50 Cascaded\",\n    \
             \"total\": 38.45525559963504,\n    \"proposal\": 20.732889792,\n    \
             \"refinement\": 17.722365807635036,\n    \"from_tracker\": null,\n    \
             \"from_proposal\": null,\n    \"paper\": [\n      43.2,\n      20.7,\n      \
             22.5,\n      null,\n      null\n    ]\n  },\n  {\n    \
             \"system\": \"ResNet-10a+ResNet-50 CaTDet\",\n    \
             \"total\": 44.92996778625128,\n    \"proposal\": 20.732889792,\n    \
             \"refinement\": 24.197077994251277,\n    \"from_tracker\": 13.835712753679468,\n    \
             \"from_proposal\": 17.722365807635036,\n    \"paper\": [\n      49.3,\n      \
             20.7,\n      28.6,\n      11.9,\n      22.5\n    ]\n  }\n]"
        );
        let fig6 = vec![Fig6Point {
            model: "ResNet-10a".into(),
            tracker: true,
            c_thresh: 0.01,
            map_hard: 0.7171388342657528,
            md08_hard: Some(5.174635922330097),
            gops: 45.30722670464572,
        }];
        assert_eq!(
            pretty(&fig6).unwrap(),
            "[\n  {\n    \"model\": \"ResNet-10a\",\n    \"tracker\": true,\n    \
             \"c_thresh\": 0.009999999776482582,\n    \"map_hard\": 0.7171388342657528,\n    \
             \"md08_hard\": 5.174635922330097,\n    \"gops\": 45.30722670464572\n  }\n]"
        );
    }
}
